package router

import (
	"flag"
	"io"
	"reflect"
	"sort"
	"testing"

	"gcplus/internal/cache"
)

// knobFlagDefaults is the golden flag set RegisterFlags binds on a zero
// Options: every flag name with its default. Renaming or dropping a
// flag, or changing what a zero field means on the command line, must
// show up here.
var knobFlagDefaults = map[string]string{
	"shards":               "0",
	"method":               "",
	"model":                "CON",
	"policy":               "",
	"cache":                "0",
	"window":               "0",
	"nocache":              "false",
	"eager":                "false",
	"verify-parallelism":   "0",
	"hit-index":            "true",
	"planner":              "false",
	"plan-cache":           "0",
	"repair-parallelism":   "0",
	"norepair":             "false",
	"data-dir":             "",
	"snapshot-every":       "0",
	"nowal":                "false",
	"slowlog-threshold":    "0s",
	"slowlog-size":         "0",
	"trace-sample-rate":    "0",
	"trace-store-size":     "0",
	"ready-max-pending":    "0",
	"query-timeout":        "0s",
	"update-timeout":       "0s",
	"max-inflight-queries": "0",
	"max-inflight-updates": "0",
	"wal-policy":           "",
	"transport":            "",
	"nodegrade":            "false",
}

// unflaggedKnobs are the Options and cache.Config fields deliberately
// left off the command line, each with the reason.
var unflaggedKnobs = map[string]string{
	"NoSync":                   "trades machine-crash durability for speed; tests and the benchmark set it in code",
	"Cache.StrictInvalidation": "the validity-optimization ablation's switch, set per run by internal/bench",
	"Cache.RepairQueue":        "sized by New from the repair settings (DefaultRepairQueue)",
	"Cache.HitIndexPathLen":    "query-index tuning exercised by the cache package's tests",
	"Logger":                   "a process's log sink, not a serving knob",
	"Faults":                   "the chaos harness's fault hooks, not a serving knob",
}

func TestRegisterFlagsGolden(t *testing.T) {
	var o Options
	fs := flag.NewFlagSet("knobs", flag.ContinueOnError)
	o.RegisterFlags(fs)
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if !reflect.DeepEqual(got, knobFlagDefaults) {
		t.Fatalf("flag defaults:\n got %v\nwant %v", got, knobFlagDefaults)
	}
	if o.Cache == nil || *o.Cache != (cache.Config{}) {
		t.Fatalf("RegisterFlags on a zero Options left Cache = %+v, want an empty config", o.Cache)
	}
	// Help output must render every flag, including the custom values.
	fs.SetOutput(io.Discard)
	fs.PrintDefaults()
}

// TestRegisterFlagsCoversEveryKnob sets each flag and records which
// Options or cache.Config field it changed: every flag must change
// exactly one field, no field may have two flags, and every exported
// field must have a flag or be on the unflaggedKnobs list. A knob added
// without a flag, or declared a second time, fails here.
func TestRegisterFlagsCoversEveryKnob(t *testing.T) {
	var o Options
	fs := flag.NewFlagSet("knobs", flag.ContinueOnError)
	o.RegisterFlags(fs)
	boundBy := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) {
		changed := setToNonDefault(t, fs, &o, f.Name)
		if len(changed) != 1 {
			t.Errorf("-%s changed fields %v, want exactly one", f.Name, changed)
			return
		}
		if prev, dup := boundBy[changed[0]]; dup {
			t.Errorf("%s is bound by both -%s and -%s", changed[0], prev, f.Name)
		}
		boundBy[changed[0]] = f.Name
	})
	fields := knobValues(reflect.ValueOf(o), "")
	for field := range fields {
		_, bound := boundBy[field]
		_, listed := unflaggedKnobs[field]
		switch {
		case bound && listed:
			t.Errorf("%s has flag -%s but is listed as unflagged", field, boundBy[field])
		case !bound && !listed:
			t.Errorf("%s has no flag; bind it in RegisterFlags or list it in unflaggedKnobs with the reason", field)
		}
	}
	for field := range unflaggedKnobs {
		if _, ok := fields[field]; !ok {
			t.Errorf("unflaggedKnobs names %s, which is no longer a field", field)
		}
	}
}

// setToNonDefault sets flag name to the first probe value it accepts
// that changes o, then restores o, returning the changed field paths.
func setToNonDefault(t *testing.T, fs *flag.FlagSet, o *Options, name string) []string {
	t.Helper()
	before, beforeCache := *o, *o.Cache
	defer func() { *o, *o.Cache = before, beforeCache }()
	for _, v := range []string{"false", "true", "7", "3ms", "0.5", "EVI", "LRU", "probe"} {
		if fs.Set(name, v) != nil {
			continue
		}
		var changed []string
		was := before
		was.Cache = &beforeCache
		old := knobValues(reflect.ValueOf(was), "")
		for path, now := range knobValues(reflect.ValueOf(*o), "") {
			if !reflect.DeepEqual(now, old[path]) {
				changed = append(changed, path)
			}
		}
		if len(changed) > 0 {
			sort.Strings(changed)
			return changed
		}
	}
	t.Fatalf("no probe value changed anything through -%s", name)
	return nil
}

// knobValues maps each exported field path of an Options value (or,
// recursively, its cache config) to its current value.
func knobValues(v reflect.Value, prefix string) map[string]any {
	out := map[string]any{}
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if !f.IsExported() {
			continue
		}
		if f.Type == reflect.TypeOf((*cache.Config)(nil)) {
			for path, val := range knobValues(v.Field(i).Elem(), prefix+f.Name+".") {
				out[path] = val
			}
			continue
		}
		out[prefix+f.Name] = v.Field(i).Interface()
	}
	return out
}
