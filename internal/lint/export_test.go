package lint

// Registry returns the shared code table, ordered by code, for the
// external tests. The returned slice must not be modified.
func Registry() []CodeInfo { return registry }

// IsDeep reports whether a code is one of the deep analyses'
// (GEM009–GEM012), which only a deep run reports.
func IsDeep(c Code) bool { return c >= CodeContradiction && c <= CodeRedundant }
