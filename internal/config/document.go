package config

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Document wraps a parsed configuration tree with typed, path-based access.
// Paths use dots for map keys ("launcher.backend") and numeric segments for
// list indices ("metrics.0.name").
type Document struct {
	root any
}

// NewDocument wraps an already parsed tree.
func NewDocument(root any) *Document { return &Document{root: root} }

// ParseFile loads a configuration file, selecting the parser by extension:
// .json uses encoding/json, anything else the YAML subset.
func ParseFile(path string) (*Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(data, filepath.Ext(path))
}

// Parse decodes data using the parser implied by ext (".json" or a YAML
// extension; unknown extensions try JSON first, then YAML).
func Parse(data []byte, ext string) (*Document, error) {
	switch strings.ToLower(ext) {
	case ".json":
		var root any
		if err := json.Unmarshal(data, &root); err != nil {
			return nil, fmt.Errorf("config: %w", err)
		}
		return &Document{root: root}, nil
	case ".yaml", ".yml":
		root, err := ParseYAML(data)
		if err != nil {
			return nil, err
		}
		return &Document{root: root}, nil
	default:
		var root any
		if err := json.Unmarshal(data, &root); err == nil {
			return &Document{root: root}, nil
		}
		root, yerr := ParseYAML(data)
		if yerr != nil {
			return nil, yerr
		}
		return &Document{root: root}, nil
	}
}

// Lookup resolves a dotted path; ok is false if any segment is missing.
func (d *Document) Lookup(path string) (any, bool) {
	cur := d.root
	if path == "" {
		return cur, true
	}
	for _, seg := range strings.Split(path, ".") {
		switch node := cur.(type) {
		case map[string]any:
			v, found := node[seg]
			if !found {
				return nil, false
			}
			cur = v
		case []any:
			var idx int
			if _, err := fmt.Sscanf(seg, "%d", &idx); err != nil || idx < 0 || idx >= len(node) {
				return nil, false
			}
			cur = node[idx]
		default:
			return nil, false
		}
	}
	return cur, true
}

// String returns the string at path, or def when missing or mistyped.
func (d *Document) String(path, def string) string {
	if v, ok := d.Lookup(path); ok {
		if s, ok := v.(string); ok {
			return s
		}
	}
	return def
}

// Int returns the integer at path, accepting int64 and whole float64.
func (d *Document) Int(path string, def int) int {
	if v, ok := d.Lookup(path); ok {
		switch n := v.(type) {
		case int64:
			return int(n)
		case float64:
			if n == float64(int64(n)) {
				return int(n)
			}
		case int:
			return n
		}
	}
	return def
}

// Float returns the float at path.
func (d *Document) Float(path string, def float64) float64 {
	if v, ok := d.Lookup(path); ok {
		switch n := v.(type) {
		case float64:
			return n
		case int64:
			return float64(n)
		case int:
			return float64(n)
		}
	}
	return def
}

// Bool returns the bool at path.
func (d *Document) Bool(path string, def bool) bool {
	if v, ok := d.Lookup(path); ok {
		if b, ok := v.(bool); ok {
			return b
		}
	}
	return def
}

// List returns the list at path, or nil.
func (d *Document) List(path string) []any {
	if v, ok := d.Lookup(path); ok {
		if l, ok := v.([]any); ok {
			return l
		}
	}
	return nil
}

// Map returns the mapping at path, or nil.
func (d *Document) Map(path string) map[string]any {
	if v, ok := d.Lookup(path); ok {
		if m, ok := v.(map[string]any); ok {
			return m
		}
	}
	return nil
}

// Strings returns the list at path coerced to strings (non-strings are
// formatted with %v).
func (d *Document) Strings(path string) []string {
	l := d.List(path)
	out := make([]string, len(l))
	for i, v := range l {
		if s, ok := v.(string); ok {
			out[i] = s
		} else {
			out[i] = fmt.Sprintf("%v", v)
		}
	}
	return out
}

// Unmarshal decodes the subtree at path into out (a struct pointer) by
// round-tripping through encoding/json, so `json` struct tags apply.
func (d *Document) Unmarshal(path string, out any) error {
	v, ok := d.Lookup(path)
	if !ok {
		return fmt.Errorf("config: path %q not found", path)
	}
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("config: %w", err)
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("config: decoding %q: %w", path, err)
	}
	return nil
}
