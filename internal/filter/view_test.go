package filter_test

import (
	"rebeca/internal/codec"
	"rebeca/internal/filter"
	"rebeca/internal/message"
)

// The index property tests match every notification a second time as a
// broker matches a relay-form publish: encoded by the codec and read back
// in place through its view.
func init() {
	filter.SetViewAttrs(func(n message.Notification) filter.Attrs {
		return codec.ViewNote(codec.AppendNote(nil, &n)).AppendAttrs(nil)
	})
}
