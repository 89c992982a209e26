package multifile

// ExportedForTest reaches the external test package only through this
// in-package test file, as go test builds it.
func ExportedForTest() int { return Exported() }
