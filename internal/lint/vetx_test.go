package lint_test

import (
	"encoding/json"
	"maps"
	"testing"

	"qkd/internal/lint"
	"qkd/internal/lint/linttest"
)

// FuzzParseVetx throws arbitrary bytes at the facts-file parser. Facts
// files come out of go vet's cache, from outside the program, so the
// parser must never panic, and whatever it accepts must survive a
// marshal/parse round trip as the same set of facts.
func FuzzParseVetx(f *testing.F) {
	for _, pkg := range []string{"lockdep", "keytaint"} {
		f.Add(linttest.Facts(f, pkg).MarshalVetx())
	}
	f.Add([]byte("qkdlint facts v2\n{}\n"))
	f.Add([]byte("qkdlint facts v1 (none)\n"))
	f.Add([]byte("qkdlint facts v2\n{\"funcs\":[null,{\"name\":\"\"},{\"name\":\"p.F\",\"secret\":[0,0]},{\"name\":\"p.F\"}],\"cycles\":[\"a→a\"]}"))
	f.Add([]byte("\xff\n\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := lint.ParseVetx(data)
		want := factSet(s)
		out := s.MarshalVetx()
		if got := factSet(lint.ParseVetx(out)); !maps.Equal(got, want) {
			t.Fatalf("round trip changed the facts:\nparsed %v\nre-parsed %v\nfrom %q", want, got, out)
		}
	})
}

// factSet flattens summaries into a set of facts, one JSON key each, so
// that two summaries compare as sets.
func factSet(s *lint.Summaries) map[string]bool {
	set := make(map[string]bool)
	add := func(v ...any) {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		set[string(b)] = true
	}
	for name, fs := range s.Funcs {
		add("func", name, fs.Name, fs.Method, fs.Sig)
		for _, r := range fs.SecretResults {
			add("secret", name, r)
		}
		for _, x := range fs.ParamToResult {
			add("flow", name, x)
		}
		for _, x := range fs.ParamSinks {
			add("sink", name, x)
		}
		for _, x := range fs.Acquires {
			add("acquire", name, x)
		}
		for _, x := range fs.Blocks {
			add("block", name, x)
		}
		for _, x := range fs.Edges {
			add("edge", name, x)
		}
	}
	for sig := range s.ReportedCycles {
		add("cycle", sig)
	}
	for key := range s.IfaceMethods {
		add("iface", key)
	}
	return set
}
