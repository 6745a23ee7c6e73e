package filter

import "rebeca/internal/message"

// SetViewAttrs installs the encoded-view input of the index property tests.
func SetViewAttrs(fn func(message.Notification) Attrs) { viewAttrs = fn }
