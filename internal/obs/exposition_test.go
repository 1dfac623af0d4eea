package obs

import (
	"strings"
	"testing"
	"time"
)

// Exposition-grammar tests: hostile HELP strings, hostile label values
// and the exemplar suffix must all render lines the text-format grammar
// accepts — a scraper must never see a broken line no matter what
// strings instrument registration fed in.

func TestHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("gc_hostile_help_total", "line one\nline \\two", nil)
	var b strings.Builder
	if err := r.WriteProm(&b, nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	validateExposition(t, out)
	want := `# HELP gc_hostile_help_total line one\nline \\two`
	if !strings.Contains(out, want) {
		t.Fatalf("HELP not escaped, want %q in:\n%s", want, out)
	}
	// The raw newline must not have survived: every line is either a
	// comment or a sample, never a bare continuation.
	for ln, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Fatalf("line %d broken by unescaped HELP: %q", ln+1, line)
		}
	}
}

func TestHostileLabelValues(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("gc_hostile_label", "Hostile labels.", Labels{
		"path": "a\\b\"c\nd",
	}, func(any) float64 { return 1 })
	var b strings.Builder
	if err := r.WriteProm(&b, nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	validateExposition(t, out)
	if !strings.Contains(out, `gc_hostile_label{path="a\\b\"c\nd"} 1`) {
		t.Fatalf("label not escaped:\n%s", out)
	}
}

func TestExemplarExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("gc_ex_seconds", "Exemplars.", Labels{"shard": "0"})
	// One observation per interesting bucket, each tagged with a trace.
	h.Observe(3 * time.Millisecond)
	h.SetExemplar(3*time.Millisecond, 0xdeadbeef)
	h.Observe(0) // below the first exposition bound
	h.SetExemplar(0, 0x1)
	h.Observe(time.Duration(1) << 40) // past the last bound: +Inf slot
	h.SetExemplar(time.Duration(1)<<40, 0x2)

	var b strings.Builder
	if err := r.WriteProm(&b, nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	validateExposition(t, out)

	for _, want := range []string{
		` # {trace_id="00000000deadbeef"} 0.003`,
		`le="+Inf"} 3 # {trace_id="0000000000000002"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing exemplar %q:\n%s", want, out)
		}
	}
	// The exemplar must ride the bucket that holds the observation: 3ms
	// lands in the (2^21 ns, 2^22 ns] bound ≈ 0.004194304s.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, `trace_id="00000000deadbeef"`) &&
			!strings.Contains(line, `le="0.004194304"`) {
			t.Fatalf("exemplar on wrong bucket: %q", line)
		}
	}

	// Attach-only and nil/zero safety.
	if h.Count() != 3 {
		t.Fatalf("SetExemplar changed count: %d", h.Count())
	}
	var nilH *Histogram
	nilH.SetExemplar(time.Second, 1) // must not panic
	h.SetExemplar(time.Second, 0)    // zero id ignored
	if id, _, ok := h.exemplar(bucketSlotForTest(time.Second)); ok && id == 0 {
		t.Fatal("zero trace id retained")
	}
}

// bucketSlotForTest mirrors SetExemplar's slot arithmetic for assertions.
func bucketSlotForTest(d time.Duration) int {
	h := NewHistogram()
	h.SetExemplar(d, 0xabc)
	for i := 0; i < promSlots; i++ {
		if id, _, ok := h.exemplar(i); ok && id == 0xabc {
			return i
		}
	}
	return -1
}
