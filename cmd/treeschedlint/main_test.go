package main

import (
	"reflect"
	"testing"
)

func TestSelectAnalyzers(t *testing.T) {
	all := []string{"policypure", "detfree", "poollife", "errtyped", "hotalloc", "locksafe", "goroleak"}
	for _, tc := range []struct {
		args, want, rest []string
	}{
		{nil, all, nil},
		{[]string{"./..."}, all, []string{"./..."}},
		{[]string{"-detfree", "./internal/trace"}, []string{"detfree"}, []string{"./internal/trace"}},
		{[]string{"--hotalloc=true", "-locksafe=1"}, []string{"hotalloc", "locksafe"}, nil},
		{[]string{"-detfree=false", "--goroleak=0"}, []string{"policypure", "poollife", "errtyped", "hotalloc", "locksafe"}, nil},
		// Any explicit enable means only those; a disable beside it is moot.
		{[]string{"-detfree", "-hotalloc=false"}, []string{"detfree"}, nil},
		// The last flag for an analyzer wins.
		{[]string{"-detfree", "-detfree=false"}, []string{"policypure", "poollife", "errtyped", "hotalloc", "locksafe", "goroleak"}, nil},
		// Unknown names and values are not analyzer flags.
		{[]string{"-nosuch", "-detfree=maybe"}, all, []string{"-nosuch", "-detfree=maybe"}},
	} {
		selected, rest := selectAnalyzers(tc.args)
		var names []string
		for _, a := range selected {
			names = append(names, a.Name)
		}
		if !reflect.DeepEqual(names, tc.want) || !reflect.DeepEqual(rest, tc.rest) {
			t.Errorf("selectAnalyzers(%q) = %q, %q; want %q, %q", tc.args, names, rest, tc.want, tc.rest)
		}
	}
}
