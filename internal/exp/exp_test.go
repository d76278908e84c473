package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := &Table{
		Title:  "demo",
		Header: []string{"a", "bbbb"},
	}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	tb.Notes = append(tb.Notes, "a note")
	out := tb.String()
	if !strings.HasPrefix(out, "demo\n") {
		t.Fatalf("missing title: %q", out)
	}
	if !strings.Contains(out, "note: a note") {
		t.Fatal("missing note")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + header + rule + 2 rows + note.
	if len(lines) != 6 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	// Columns aligned: header and rows share the first column width (3).
	if !strings.HasPrefix(lines[1], "a  ") || !strings.HasPrefix(lines[3], "1  ") {
		t.Fatalf("misaligned: %q", out)
	}
}

func TestFormatHelpers(t *testing.T) {
	if f1(1.25) != "1.2" && f1(1.25) != "1.3" {
		t.Fatalf("f1 = %q", f1(1.25))
	}
	if f2(0.5) != "0.50" {
		t.Fatalf("f2 = %q", f2(0.5))
	}
	if f0(3.7) != "4" {
		t.Fatalf("f0 = %q", f0(3.7))
	}
	if d(42) != "42" {
		t.Fatalf("d = %q", d(42))
	}
}

// parseCell reads a numeric table cell.
func parseCell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

func TestFig7aShape(t *testing.T) {
	tb, err := Fig7a(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// CrowdWiFi (col 1) must improve from l=5 to l=25 and beat MV (col 2)
	// at l=25; the oracle (col 4) lower-bounds CrowdWiFi everywhere.
	first := parseCell(t, tb.Rows[0][1])
	last := parseCell(t, tb.Rows[len(tb.Rows)-1][1])
	if last >= first {
		t.Fatalf("CrowdWiFi log-error did not decay: %v → %v", first, last)
	}
	lastMV := parseCell(t, tb.Rows[len(tb.Rows)-1][2])
	if last >= lastMV {
		t.Fatalf("CrowdWiFi (%v) not below MV (%v) at l=25", last, lastMV)
	}
	for i, row := range tb.Rows {
		kos := parseCell(t, row[1])
		oracle := parseCell(t, row[4])
		if oracle > kos+0.2 {
			t.Fatalf("row %d: oracle %v above CrowdWiFi %v", i, oracle, kos)
		}
	}
}

func TestFig7bShape(t *testing.T) {
	tb, err := Fig7b(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// MV is insensitive to γ: spread below one decade.
	var mvMin, mvMax float64
	for i, row := range tb.Rows {
		v := parseCell(t, row[2])
		if i == 0 || v < mvMin {
			mvMin = v
		}
		if i == 0 || v > mvMax {
			mvMax = v
		}
	}
	if mvMax-mvMin > 0.5 {
		t.Fatalf("MV varies too much with γ: %v..%v", mvMin, mvMax)
	}
	// CrowdWiFi improves with γ.
	first := parseCell(t, tb.Rows[0][1])
	last := parseCell(t, tb.Rows[len(tb.Rows)-1][1])
	if last >= first {
		t.Fatalf("CrowdWiFi log-error did not decay with γ: %v → %v", first, last)
	}
}

func TestFig5Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline experiment")
	}
	tb, err := Fig5(2014)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 checkpoints", len(tb.Rows))
	}
	// Final checkpoint: all 8 APs, sub-lattice mean error.
	finalAPs := parseCell(t, tb.Rows[2][1])
	finalErr := parseCell(t, tb.Rows[2][2])
	if finalAPs < 7 || finalAPs > 9 {
		t.Errorf("final AP count %v, want ~8", finalAPs)
	}
	if finalErr > 8 {
		t.Errorf("final mean error %v m, want < one lattice (8 m)", finalErr)
	}
}

func TestFig11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("trace experiment")
	}
	tb, err := Fig11(2014, 600, []float64{0, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 { // 2 kinds × 2 levels
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// At zero error AllAP must beat BRR on both metrics.
	allT := parseCell(t, tb.Rows[0][3])
	brrT := parseCell(t, tb.Rows[0][2])
	if allT >= brrT {
		t.Errorf("AllAP median %v not below BRR %v at zero error", allT, brrT)
	}
	allS := parseCell(t, tb.Rows[0][5])
	brrS := parseCell(t, tb.Rows[0][4])
	if allS <= brrS {
		t.Errorf("AllAP throughput %v not above BRR %v at zero error", allS, brrS)
	}
}

func TestFig9Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed experiment")
	}
	tb, err := Fig9(2014)
	if err != nil {
		t.Fatal(err)
	}
	// 3 speeds × 2 checkpoints + crowdsourced + Skyhook.
	if len(tb.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(tb.Rows))
	}
	if tb.Rows[6][0] != "crowdsourced" || tb.Rows[7][0] != "Skyhook" {
		t.Fatalf("unexpected row labels: %v / %v", tb.Rows[6][0], tb.Rows[7][0])
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a, err := Fig7a(99, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig7a(99, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("Fig7a not deterministic for a fixed seed")
	}
}

func TestFig6SingleLattice(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline experiment")
	}
	tb, err := Fig6(2014, []float64{20}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Counting error at a 20 m lattice should stay small (paper: zero).
	if cnt := parseCell(t, tb.Rows[0][3]); cnt > 0.5 {
		t.Errorf("counting error %v at 20 m lattice", cnt)
	}
}

func TestFig8PointSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline experiment")
	}
	tb, err := Fig8Sparsity(2014, 1, []int{5})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// CrowdWiFi counting error at k=5 should be small.
	if cnt := parseCell(t, tb.Rows[0][1]); cnt > 0.6 {
		t.Errorf("CrowdWiFi counting error %v at k=5", cnt)
	}
}

func TestFig8MeasurementsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline experiment")
	}
	tb, err := Fig8Measurements(2014, 1, []int{60})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestFig10Short(t *testing.T) {
	if testing.Short() {
		t.Skip("trace experiment")
	}
	tb, err := Fig10(2014, 400)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// AllAP connected fraction should not be worse than BRR by a wide margin.
	brr := parseCell(t, tb.Rows[0][1])
	all := parseCell(t, tb.Rows[0][2])
	if all < brr-0.1 {
		t.Errorf("AllAP connected %v far below BRR %v", all, brr)
	}
}

// fig7QuickDigest is the SHA-256 of the quick Fig. 7(a) and 7(b) tables at
// crowdwifi-exp's default seed (amd64): every column, the Spearman
// (Skyhook) one included.
const fig7QuickDigest = "e91084d818e12d02df25972a1ed581e5041b7eb7459d625c066de7b58a7ae9da"

func TestFig7QuickDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the digest was recorded on amd64; this is %s", runtime.GOARCH)
	}
	h := sha256.New()
	for _, fig := range []func(uint64, int) (*Table, error){Fig7a, Fig7b} {
		tb, err := fig(2014, 10)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(tb.String()))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != fig7QuickDigest {
		t.Fatalf("digest %s, want %s: the quick Fig. 7 tables moved", got, fig7QuickDigest)
	}
}
