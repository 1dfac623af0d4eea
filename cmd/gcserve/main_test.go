package main

import (
	"flag"
	"reflect"
	"testing"

	"gcplus"
)

// TestPresets pins gcserve's serving-flag defaults: those of a zero
// ServeOptions (golden in internal/router) except the deadlines.
func TestPresets(t *testing.T) {
	want := flagDefaults(gcplus.ServeOptions{})
	want["query-timeout"] = "2s"
	want["update-timeout"] = "10s"
	if got := flagDefaults(presets()); !reflect.DeepEqual(got, want) {
		t.Fatalf("flag defaults:\n got %v\nwant %v", got, want)
	}
}

func flagDefaults(o gcplus.ServeOptions) map[string]string {
	fs := flag.NewFlagSet("gcserve", flag.ContinueOnError)
	o.RegisterFlags(fs)
	out := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { out[f.Name] = f.DefValue })
	return out
}
