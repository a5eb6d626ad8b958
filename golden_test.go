package rowfuse_test

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"rowfuse/internal/core"
	"rowfuse/internal/report"
	"rowfuse/internal/timing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenStudy runs a reduced but representative campaign: every module,
// all three patterns, the Table 2 tAggON marks, two dies and three runs,
// so the per-die scheduling, run-to-run noise and multi-die aggregation
// paths are all exercised.
func goldenStudy(t *testing.T) *core.Study {
	t.Helper()
	s := core.NewStudy(core.StudyConfig{
		Sweep:         timing.Table2Marks(),
		RowsPerRegion: 8,
		Dies:          2,
		Runs:          3,
	})
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestGoldenRenderings pins the Table 2, Fig 4, Fig 5 and Fig 6
// renderings byte for byte. The Table 2 and Fig 4 files were captured
// from the original (pre-refactor) sequential engine path, the Fig 5 and
// Fig 6 files from the figure extractors before they were simplified;
// any optimization of the analytic hot path must reproduce them exactly.
// Regenerate deliberately with:
//
//	go test -run TestGoldenRenderings -update
func TestGoldenRenderings(t *testing.T) {
	s := goldenStudy(t)

	var table2 bytes.Buffer
	rows, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Table2(&table2, rows); err != nil {
		t.Fatal(err)
	}

	var fig4 bytes.Buffer
	data, err := s.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Fig4(&fig4, data); err != nil {
		t.Fatal(err)
	}

	var fig5 bytes.Buffer
	data5, err := s.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Fig5(&fig5, data5); err != nil {
		t.Fatal(err)
	}

	var fig6 bytes.Buffer
	data6, err := s.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Fig6(&fig6, data6); err != nil {
		t.Fatal(err)
	}

	check := func(name string, got []byte) {
		t.Helper()
		path := filepath.Join("testdata", name)
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run with -update to create): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s drifted from the golden rendering (-want +got):\n--- want ---\n%s\n--- got ---\n%s", name, want, got)
		}
	}
	check("golden_table2.txt", table2.Bytes())
	check("golden_fig4.txt", fig4.Bytes())
	check("golden_fig5.txt", fig5.Bytes())
	check("golden_fig6.txt", fig6.Bytes())
}
