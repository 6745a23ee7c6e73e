package codec

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

// TestInternerStaysBounded: however many distinct names a connection sees,
// the table never holds more than internCap of them nor any longer than
// internMaxLen, and every lookup still returns the right string.
func TestInternerStaysBounded(t *testing.T) {
	var in Interner
	for i := 0; i < 3*internCap; i++ {
		want := fmt.Sprint("node-", i)
		if got := in.bytes([]byte(want)); got != want {
			t.Fatalf("interned %q as %q", want, got)
		}
		if len(in.m) > internCap {
			t.Fatalf("table holds %d names, bound %d", len(in.m), internCap)
		}
	}
	long := strings.Repeat("x", internMaxLen+1)
	if got := in.bytes([]byte(long)); got != long {
		t.Fatalf("long name came back as %q", got)
	}
	if _, kept := in.m[long]; kept {
		t.Fatal("a name longer than internMaxLen was kept")
	}
}

// TestInternCopiesAliasedStrings: Intern's result never shares memory with
// its argument, so a broker may keep a NoteView's publisher ID without
// keeping the note's bytes — or seeing them change.
func TestInternCopiesAliasedStrings(t *testing.T) {
	var in Interner
	for _, known := range []bool{false, true} { // the second time, from the table
		b := []byte("publisher")
		aliased := unsafe.String(&b[0], len(b))
		got := in.Intern(aliased)
		b[0] = 'X'
		if got != "publisher" {
			t.Fatalf("known=%v: Intern's result changed with its argument's bytes: %q", known, got)
		}
	}
}
