package main

import (
	"flag"
	"reflect"
	"testing"

	"gcplus/internal/router"
)

// TestPresets pins gcbench's serving-flag defaults: those of a zero
// router.Options (golden in internal/router) except shards and tracing.
func TestPresets(t *testing.T) {
	want := flagDefaults(router.Options{})
	want["shards"] = "4"
	want["trace-sample-rate"] = "-1"
	if got := flagDefaults(presets()); !reflect.DeepEqual(got, want) {
		t.Fatalf("flag defaults:\n got %v\nwant %v", got, want)
	}
}

func flagDefaults(o router.Options) map[string]string {
	fs := flag.NewFlagSet("gcbench", flag.ContinueOnError)
	o.RegisterFlags(fs)
	out := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { out[f.Name] = f.DefValue })
	return out
}
