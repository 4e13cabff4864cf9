package load

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestExpandStopsAtNestedModule pins the go tool's ./... semantics: a
// subdirectory with its own go.mod is a separate module, so neither it
// nor anything below it is part of the pattern.
func TestExpandStopsAtNestedModule(t *testing.T) {
	root := t.TempDir()
	for rel, content := range map[string]string{
		"go.mod":              "module fixmod\n\ngo 1.22\n",
		"root.go":             "package fixmod\n",
		"a/a.go":              "package a\n",
		"a/a_test.go":         "package a\n",
		"testonly/x_test.go":  "package testonly\n",
		"testdata/t/t.go":     "package t\n",
		"nested/go.mod":       "module fixmod/nested\n\ngo 1.22\n",
		"nested/n.go":         "package nested\n",
		"nested/deep/deep.go": "package deep\n",
	} {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	l, err := New(root)
	if err != nil {
		t.Fatal(err)
	}
	got, err := l.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"fixmod", "fixmod/a"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Expand(./...) = %q, want %q", got, want)
	}
}
