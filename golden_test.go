package jasworkload

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestReportMatchesGolden pins the quick-scale markdown report
// byte-for-byte against testdata/golden_report_quick.md, which was
// captured from the per-instruction pipeline before batching landed.
// The batched fast paths are required to be state-neutral, so any drift
// here means one of them changed observable results, not just speed.
//
// Regenerate (only after an intentional model change) with:
//
//	go run ./cmd/jasrun -markdown > testdata/golden_report_quick.md
func TestReportMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/golden_report_quick.md")
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig(ScaleQuick)
	cfg.Seed = 1
	FlushRuns()
	rep, err := Characterize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffLines(rep.Markdown(), string(want)); d != "" {
		t.Fatalf("report drifted from golden at %s", d)
	}
}

// diffLines describes the first line where got and want differ, or
// returns "" when they are equal.
func diffLines(got, want string) string {
	if got == want {
		return ""
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(want, "\n")
	n := len(gotLines)
	if len(wantLines) > n {
		n = len(wantLines)
	}
	for i := 0; i < n; i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			return fmt.Sprintf("line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
	return fmt.Sprintf("the end: got %d bytes, want %d", len(got), len(want))
}
