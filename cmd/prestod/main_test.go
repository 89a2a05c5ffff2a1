package main

import (
	"flag"
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	cases := []struct {
		set  []string
		want string // error substring; "" means accepted
	}{
		{nil, ""},
		{[]string{"proxies", "motes", "days", "queries", "every", "wired", "v"}, ""},
		{[]string{"checkpoint"}, "-checkpoint needs -listen"},
		{[]string{"sites"}, "-sites needs -listen"},
		{[]string{"quantum"}, "-quantum needs -listen"},
		{[]string{"listen", "sites", "quantum", "checkpoint", "every", "queries"}, ""},
		{[]string{"http-qps"}, "-http-qps needs -http"},
		{[]string{"http-pace"}, "-http-pace needs -http"},
		{[]string{"pprof"}, "-pprof needs -http"},
		{[]string{"slow-query"}, "-slow-query needs -http"},
		{[]string{"http", "http-qps", "http-pace", "pprof", "slow-query"}, ""},
		{[]string{"listen", "http", "pprof"}, ""},
		{[]string{"pprof", "listen"}, "-pprof needs -http"},
		{[]string{"join", "listen"}, "-listen cannot be combined with -join"},
		{[]string{"join", "http"}, "-http cannot be combined with -join"},
		{[]string{"join", "checkpoint"}, "-checkpoint needs -listen"},
		{[]string{"join", "every"}, "-every cannot be combined with -join"},
		{[]string{"join", "queries"}, "-queries cannot be combined with -join"},
		{[]string{"join", "wired", "proxies", "scenario", "max-staleness"}, ""},
	}
	for _, c := range cases {
		set := map[string]bool{}
		for _, f := range c.set {
			set[f] = true
		}
		err := checkFlags(set)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%v: rejected: %v", c.set, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%v: got %v, want %q", c.set, err, c.want)
		}
	}
}

// TestFlagRulesNameRealFlags guards the table against a renamed flag,
// which would silently disable its rule.
func TestFlagRulesNameRealFlags(t *testing.T) {
	fs := flag.NewFlagSet("prestod", flag.ContinueOnError)
	var o options
	o.register(fs)
	for _, r := range flagRules {
		for _, name := range []string{r.flag, r.partner} {
			if fs.Lookup(name) == nil {
				t.Errorf("flagRules names -%s, which prestod does not define", name)
			}
		}
	}
}
