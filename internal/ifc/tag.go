package ifc

import (
	"errors"
	"fmt"
	"strings"
	"unicode"
)

// A Tag names a single security concern, such as "medical", "consent", or a
// federated, namespaced concern such as "eu/personal-data". Tags are opaque:
// the IFC model attaches no meaning to their internal structure. Namespacing
// conventions (see package names) exist so that independently administered
// domains do not collide.
type Tag string

// ErrEmptyTag is returned when a tag with no content is supplied.
var ErrEmptyTag = errors.New("ifc: empty tag")

// ErrInvalidTag is returned when a tag contains forbidden characters.
var ErrInvalidTag = errors.New("ifc: invalid tag")

// maxTagLen bounds tag names so labels stay cheap to compare and transmit.
const maxTagLen = 256

// Valid reports whether the tag is well formed: non-empty, at most 256
// bytes, and free of whitespace (any rune unicode.IsSpace reports), ASCII
// control characters, and the label delimiters '{', '}' and ','.
func (t Tag) Valid() bool {
	return t.Validate() == nil
}

// Validate returns nil if the tag is well formed, or an error describing
// the first problem found.
func (t Tag) Validate() error {
	if len(t) == 0 {
		return ErrEmptyTag
	}
	if len(t) > maxTagLen {
		return fmt.Errorf("%w: %q exceeds %d bytes", ErrInvalidTag, truncate(string(t), 32), maxTagLen)
	}
	for i, c := range string(t) {
		switch {
		case c <= ' ' || c == 0x7f || unicode.IsSpace(c):
			return fmt.Errorf("%w: %q contains whitespace or control byte at offset %d", ErrInvalidTag, truncate(string(t), 32), i)
		case c == '{' || c == '}' || c == ',':
			return fmt.Errorf("%w: %q contains reserved delimiter %q", ErrInvalidTag, truncate(string(t), 32), string(c))
		}
	}
	return nil
}

// Namespace returns the portion of the tag before the last '/', or "" when
// the tag is not namespaced. For example Tag("hospital.example/medical")
// has namespace "hospital.example".
func (t Tag) Namespace() string {
	i := strings.LastIndexByte(string(t), '/')
	if i < 0 {
		return ""
	}
	return string(t[:i])
}

// Base returns the portion of the tag after the last '/', or the whole tag
// when it is not namespaced.
func (t Tag) Base() string {
	i := strings.LastIndexByte(string(t), '/')
	return string(t[i+1:])
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
