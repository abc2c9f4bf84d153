package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// Codec reads and writes one kind of replay artifact: a JSON object with a
// "schema" string and a non-empty "source" (the .repro and .leak findings
// and corpus files). T is the artifact's struct; its field order is the
// canonical encoding's field order.
type Codec[T any] struct {
	// Schema is the required value of the artifact's "schema" field.
	Schema string
	// Name prefixes decode errors ("diffcheck: repro").
	Name string
}

// Encode renders v as canonical JSON: struct field order, two-space indent,
// trailing newline. Replays compare encodings byte for byte.
func (c Codec[T]) Encode(v *T) []byte {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		// Only unmarshalable types reach this; artifact structs have none.
		panic(err)
	}
	return append(b, '\n')
}

// Decode parses data and checks its schema and source.
func (c Codec[T]) Decode(data []byte) (*T, error) {
	var head struct {
		Schema string `json:"schema"`
		Source string `json:"source"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return nil, fmt.Errorf("%s does not decode: %w", c.Name, err)
	}
	if head.Schema != c.Schema {
		return nil, fmt.Errorf("%s schema %q, want %q", c.Name, head.Schema, c.Schema)
	}
	if head.Source == "" {
		return nil, fmt.Errorf("%s has no source", c.Name)
	}
	v := new(T)
	if err := json.Unmarshal(data, v); err != nil {
		return nil, fmt.Errorf("%s does not decode: %w", c.Name, err)
	}
	return v, nil
}

// Load reads and decodes the artifact at path.
func (c Codec[T]) Load(path string) (*T, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return c.Decode(data)
}

// Write writes v's canonical encoding to path.
func (c Codec[T]) Write(path string, v *T) error {
	return os.WriteFile(path, c.Encode(v), 0o644)
}

// Diff names the first field, in encoding order, whose encoded value differs
// between a recording and a fresh re-recording, as `field = <got>, recorded
// <want>` with JSON-rendered values. It returns "" when the encodings match.
func (c Codec[T]) Diff(want, got *T) string {
	w, g := c.Encode(want), c.Encode(got)
	if bytes.Equal(w, g) {
		return ""
	}
	wf, gf := fields(w), fields(g)
	names := make([]string, 0, len(wf)+len(gf))
	for _, f := range append(wf, gf...) {
		names = append(names, f.name)
	}
	for _, name := range names {
		wv, gv := lookup(wf, name), lookup(gf, name)
		if wv != gv {
			return fmt.Sprintf("%s = %s, recorded %s", name, gv, wv)
		}
	}
	return "encodings differ"
}

type field struct{ name, value string }

// fields splits a canonical encoding into its top-level fields in order.
func fields(enc []byte) []field {
	dec := json.NewDecoder(bytes.NewReader(enc))
	var out []field
	if _, err := dec.Token(); err != nil { // opening brace
		return nil
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return out
		}
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			return out
		}
		var flat bytes.Buffer
		_ = json.Compact(&flat, v) // v is valid JSON: it just decoded
		out = append(out, field{name: tok.(string), value: flat.String()})
	}
	return out
}

// lookup returns the named field's encoded value, or "absent".
func lookup(fs []field, name string) string {
	for _, f := range fs {
		if f.name == name {
			return f.value
		}
	}
	return "absent"
}
