package experiments

import (
	"os"
	"strings"
	"testing"
)

// Each experiment must run to completion in quick mode and produce a
// non-trivial report. These tests are the regression net for the
// reproduction itself; the shape assertions live inside each Exx.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	reports, err := All(1234, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 18 {
		t.Fatalf("got %d reports, want 18", len(reports))
	}
	for _, r := range reports {
		if len(r.Rows()) == 0 {
			t.Errorf("%s produced no rows", r.ID)
		}
		if r.Paper == "" {
			t.Errorf("%s cites no paper claim", r.ID)
		}
		if !strings.Contains(r.String(), r.ID) {
			t.Errorf("%s: String() missing ID", r.ID)
		}
	}
}

func TestE12TranscriptMatchesFig12Shape(t *testing.T) {
	r, err := E12Transcript(42, true)
	if err != nil {
		t.Fatal(err)
	}
	out := r.String()
	for _, want := range []string{
		"respond new phase 2 negotiation",
		"QPFS",
		"Qblocks",
		"KEYMAT using",
		"QBITS",
		"IPsec-SA established: ESP/Tunnel",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("transcript missing %q", want)
		}
	}
	// The whole transcript is pinned byte for byte. The golden is
	// `go run ./cmd/qkdexp -quick -exp e12 -seed 42` without the blank
	// line Println adds; change it only deliberately.
	golden, err := os.ReadFile("testdata/e12_seed42.golden")
	if err != nil {
		t.Fatal(err)
	}
	if out != string(golden) {
		t.Errorf("transcript differs from testdata/e12_seed42.golden:\n%s", out)
	}
}

func TestE3ReproducesOneInTwoHundred(t *testing.T) {
	r, err := E3SiftRatio(7, true)
	if err != nil {
		t.Fatal(err)
	}
	// The ratio row must land near 200.
	found := false
	for _, row := range r.Rows() {
		if strings.Contains(row, "ratio: 1 sifted bit per") {
			found = true
		}
	}
	if !found {
		t.Error("E3 did not report the sift ratio")
	}
}

func TestH2(t *testing.T) {
	if h2(0) != 0 || h2(1) != 0 {
		t.Error("h2 endpoints")
	}
	if v := h2(0.5); v < 0.999 || v > 1.001 {
		t.Errorf("h2(0.5) = %v", v)
	}
}
