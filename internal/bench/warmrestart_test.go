package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"gcplus/internal/router"
)

// TestRunWarmRestartSmoke drives the whole warm-restart benchmark at a
// tiny scale: crash-shaped shutdown, recovery, repair drain, and the
// acceptance properties — bit-identical answers to the cold rebuild,
// recovered entries serving repeats without re-admission, and a warm
// hit rate at or near the pre-restart level.
func TestRunWarmRestartSmoke(t *testing.T) {
	sc := ScaleSmoke()
	sc.DatasetGraphs = 60
	sc.Queries = 40
	res, err := RunWarmRestart(WarmRestartConfig{
		Options:     router.Options{Shards: 2},
		Scale:       sc,
		UpdateEvery: 10,
		TailBatches: 3,
		Seed:        7,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AnswersMatch {
		t.Fatalf("warm answers %s != cold answers %s", res.WarmAnswersFNV, res.ColdAnswersFNV)
	}
	if res.RecoveredEntries == 0 {
		t.Fatal("no cache entries recovered")
	}
	if res.WarmAdmitted != 0 {
		t.Fatalf("%d entries admitted during the warm pass; repeats should refresh restored entries", res.WarmAdmitted)
	}
	if res.PreRestartHitRate > 0 && res.WarmOverPre < 0.9 {
		t.Fatalf("warm hit rate %.3f is below 90%% of pre-restart %.3f",
			res.WarmHitRate, res.PreRestartHitRate)
	}
	if res.UpdateBatches == 0 || res.WALBytes == 0 {
		t.Fatalf("test should exercise churn and the WAL: %+v", res)
	}
	var buf bytes.Buffer
	if err := WriteWarmRestartJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	var back WarmRestartResult
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Mode != "warm-restart" || back.RecoveredEntries != res.RecoveredEntries {
		t.Fatalf("JSON round trip mangled the result: %+v", back)
	}
}
