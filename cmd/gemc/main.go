// Command gemc compiles and checks a GEM specification written in the
// concrete syntax (see internal/gemlang): it parses the file, validates
// the element/group/thread structure, and prints a summary of the
// compiled specification — or, with -format, re-emits it as canonical
// GEM source. With -lint it additionally runs the gemlint static
// analyses and fails on any error-severity finding; -deep adds the
// whole-specification semantic analyses (GEM009–GEM012). The flags
// compose in any order relative to each other and the file argument.
//
// Usage:
//
//	gemc [-format] [-lint] [-deep] [-trace FILE] [-stats] FILE.gem
//
// -trace and -stats are internal/cli's, shared with the other gem
// tools: -trace writes a Chrome trace-event JSON file and -stats prints
// span/counter statistics to stderr.
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"gem/internal/analyze"
	"gem/internal/cli"
	"gem/internal/gemlang"
	"gem/internal/lint"
	"gem/internal/spec"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "gemc:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	t := cli.New("gemc", stderr, 0)
	fs := t.FS
	fs.SetOutput(io.Discard)
	format := fs.Bool("format", false, "re-emit the specification as canonical GEM source")
	lintFlag := fs.Bool("lint", false, "run the gemlint static analyses; errors fail the compile")
	deepFlag := fs.Bool("deep", false, "run the deep semantic analyses too (implies -lint)")
	usage := func() error {
		var b strings.Builder
		fmt.Fprintln(&b, "usage: gemc [-format] [-lint] [-deep] [-trace FILE] [-stats] FILE.gem")
		fs.SetOutput(&b)
		fs.PrintDefaults()
		fs.SetOutput(io.Discard)
		return fmt.Errorf("%s", strings.TrimRight(b.String(), "\n"))
	}
	// The flag package stops at the first positional argument; parse
	// again after each one, so flags may follow the file too.
	var files []string
	for rest := args; ; {
		if err := fs.Parse(rest); err != nil {
			return usage()
		}
		if fs.NArg() == 0 {
			break
		}
		files = append(files, fs.Arg(0))
		rest = fs.Args()[1:]
	}
	if len(files) != 1 {
		return usage()
	}
	file := files[0]
	return t.Run(func() error {
		src, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		s, err := gemlang.Parse(string(src))
		if err != nil {
			return err
		}
		if err := s.Validate(); err != nil {
			return err
		}
		if *lintFlag || *deepFlag {
			var diags []lint.Diagnostic
			if *deepFlag {
				res, err := analyze.AnalyzeSource(string(src))
				if err != nil {
					return err
				}
				diags = res.All()
			} else {
				res, err := lint.AnalyzeSource(string(src))
				if err != nil {
					return err
				}
				diags = res.Diags
			}
			lint.Print(stdout, file, diags)
			errs := 0
			for _, d := range diags {
				if d.Severity >= lint.SeverityError {
					errs++
				}
			}
			if errs > 0 {
				return fmt.Errorf("lint: %d error(s) in %s", errs, file)
			}
		}
		if *format {
			fmt.Fprint(stdout, gemlang.Format(s))
			return nil
		}
		dump(s, stdout)
		return nil
	})
}

func dump(s *spec.Spec, w io.Writer) {
	fmt.Fprintf(w, "specification %s\n", s.Name)
	for _, name := range s.ElementNames() {
		d, _ := s.Element(name)
		fmt.Fprintf(w, "  element %s", name)
		if d.TypeName != "" {
			fmt.Fprintf(w, " : %s", d.TypeName)
		}
		fmt.Fprintln(w)
		for _, ec := range d.Events {
			fmt.Fprintf(w, "    event %s", ec.Name)
			if len(ec.Params) > 0 {
				fmt.Fprint(w, "(")
				for i, p := range ec.Params {
					if i > 0 {
						fmt.Fprint(w, ", ")
					}
					fmt.Fprintf(w, "%s: %s", p.Name, p.Type)
				}
				fmt.Fprint(w, ")")
			}
			fmt.Fprintln(w)
		}
		for _, r := range d.Restrictions {
			fmt.Fprintf(w, "    restriction %q\n", r.Name)
		}
	}
	for _, name := range s.GroupNames() {
		g, _ := s.Group(name)
		fmt.Fprintf(w, "  group %s members=%v", name, g.Members)
		if len(g.Ports) > 0 {
			fmt.Fprint(w, " ports=")
			for i, p := range g.Ports {
				if i > 0 {
					fmt.Fprint(w, ",")
				}
				fmt.Fprintf(w, "%s.%s", p.Element, p.Class)
			}
		}
		fmt.Fprintln(w)
		for _, r := range g.Restrictions {
			fmt.Fprintf(w, "    restriction %q\n", r.Name)
		}
	}
	for _, tt := range s.Threads() {
		fmt.Fprintf(w, "  thread %s path=%d classes\n", tt.Name, len(tt.Path))
	}
	count := len(s.Restrictions())
	fmt.Fprintf(w, "  %d restriction(s) total\n", count)
}
