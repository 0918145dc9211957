// Package clitest holds what the gem CLIs' tests share: golden files
// and the pin of a tool's flag surface.
package clitest

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from the current output")

// Golden checks got against testdata/name, or rewrites the file under
// -update.
func Golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

var (
	flagLine = regexp.MustCompile(`^  -(\S+)`)
	defValue = regexp.MustCompile(`\(default (.*)\)$`)
)

// Surface lists the flags in usage, the output of a flag set's
// PrintDefaults, as "-name=default" in name order, one per line. A flag
// whose default is its type's zero value reads "-name=". The -j default,
// runtime.NumCPU(), reads "NumCPU" so the pin holds on any host. The
// help strings must not themselves end in "(default …)".
func Surface(usage string) string {
	var flags []string
	for _, line := range strings.Split(usage, "\n") {
		if m := flagLine.FindStringSubmatch(line); m != nil {
			flags = append(flags, "-"+m[1]+"=")
		}
		if m := defValue.FindStringSubmatch(line); m != nil && len(flags) > 0 {
			v := m[1]
			if s, err := strconv.Unquote(v); err == nil {
				v = s
			}
			if strings.HasPrefix(flags[len(flags)-1], "-j=") && v == strconv.Itoa(runtime.NumCPU()) {
				v = "NumCPU"
			}
			flags[len(flags)-1] += v
		}
	}
	return strings.Join(flags, "\n")
}
