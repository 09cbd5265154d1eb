package eba_test

import (
	"os"
	"slices"
	"strings"
	"testing"
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
