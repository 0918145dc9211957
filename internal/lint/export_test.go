package lint

// Registry returns the shared code table, ordered by code, for the
// external tests. The returned slice must not be modified.
func Registry() []CodeInfo { return registry }
