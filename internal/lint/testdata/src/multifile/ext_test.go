// Package multifile_test is an external test package: the loader must
// type-check it as a separate Package that imports the base package by its
// module path, with the base package's export_test.go in view.
package multifile_test

import (
	"testing"

	"megamimo/internal/lint/testdata/src/multifile"
)

func TestExported(t *testing.T) {
	if multifile.Exported() != multifile.ExportedForTest() {
		t.Fatal("non-zero")
	}
}
