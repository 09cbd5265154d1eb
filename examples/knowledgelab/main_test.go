package main

import (
	"path/filepath"
	"testing"

	"github.com/eventual-agreement/eba/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestOutput holds the example's output to testdata/output.golden;
// -update rewrites it.
func TestOutput(t *testing.T) { clitest.Golden(t, filepath.Join("testdata", "output.golden")) }
