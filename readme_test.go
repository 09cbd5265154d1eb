package eba_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"github.com/eventual-agreement/eba/internal/telemetry"
)

// TestReadmeArchitectureListsEveryPackage: the internal/ block of
// README.md's Architecture tree names every directory under internal/
// and no other.
func TestReadmeArchitectureListsEveryPackage(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, tree, ok := strings.Cut(string(readme), "## Architecture\n\n```\n")
	if !ok {
		t.Fatal("README.md has no Architecture code block")
	}
	tree, _, _ = strings.Cut(tree, "```")
	_, block, ok := strings.Cut(tree, "\ninternal/\n")
	if !ok {
		t.Fatal("README.md's Architecture tree has no internal/ line")
	}
	// Entries are indented two spaces; their continuation lines more.
	// The block ends at the first unindented line.
	var listed []string
	for _, line := range strings.Split(block, "\n") {
		if !strings.HasPrefix(line, " ") {
			break
		}
		if name, ok := strings.CutPrefix(line, "  "); ok && !strings.HasPrefix(name, " ") {
			listed = append(listed, strings.TrimSuffix(strings.Fields(name)[0], "/"))
		}
	}
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	slices.Sort(listed)
	if !slices.Equal(listed, dirs) {
		t.Errorf("README.md's Architecture tree lists internal/%v, the tree holds internal/%v", listed, dirs)
	}
}

// TestDesignListsEverySeries: the series the process registers (the
// eba package links every instrumented layer) are exactly the rows of
// DESIGN.md §6's table, and each one is read by some test outside
// internal/telemetry. A series nothing reads is deleted, not listed.
func TestDesignListsEverySeries(t *testing.T) {
	var registered []string
	for _, p := range telemetry.Default().Snapshot().Counters {
		registered = append(registered, p.Name)
	}
	registered = slices.Compact(registered) // sorted by name

	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(design), "\n## 6. ")
	if !ok {
		t.Fatal("DESIGN.md has no section 6")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	var listed []string
	for _, m := range regexp.MustCompile("(?m)^\\| `(eba_[a-z_]+)`").FindAllStringSubmatch(sec, -1) {
		listed = append(listed, m[1])
	}
	slices.Sort(listed)
	if !slices.Equal(listed, registered) {
		t.Errorf("DESIGN.md §6 lists %v, the registry holds %v", listed, registered)
	}

	var tests strings.Builder
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (path == filepath.Join("internal", "telemetry") || strings.HasPrefix(d.Name(), ".")) && path != ".":
			return filepath.SkipDir
		case strings.HasSuffix(path, "_test.go") && path != "readme_test.go":
			data, err := os.ReadFile(path)
			tests.Write(data)
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range registered {
		if !strings.Contains(tests.String(), `"`+name+`"`) {
			t.Errorf("no test outside internal/telemetry reads %s", name)
		}
	}
}
