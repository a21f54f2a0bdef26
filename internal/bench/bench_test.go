package bench

import (
	"strconv"
	"strings"
	"testing"
)

// The experiment suite is exercised here at reduced scale: every
// experiment must run without error, produce the declared columns, and
// exhibit the qualitative shape the paper claims.

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestE1Shape(t *testing.T) {
	tab, err := E1SelectionPushdown(200, []float64{0.01, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	gainLow := parseF(t, tab.Rows[0][3])
	gainHigh := parseF(t, tab.Rows[1][3])
	if gainLow <= gainHigh {
		t.Errorf("pushdown gain should shrink with selectivity: %.1f vs %.1f", gainLow, gainHigh)
	}
	if gainHigh < 1 {
		t.Errorf("pushdown should never lose on bytes: %.2f", gainHigh)
	}
}

func TestE2Shape(t *testing.T) {
	tab, err := E2QueryDelegation([]float64{1, 128}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows[0][3] != "local" {
		t.Errorf("unloaded peer should keep the query local: %v", tab.Rows[0])
	}
	if tab.Rows[1][3] != "delegate" {
		t.Errorf("heavily loaded peer should delegate: %v", tab.Rows[1])
	}
}

func TestE3Shape(t *testing.T) {
	tab, err := E3Rerouting([]int{4})
	if err != nil {
		t.Fatal(err)
	}
	// Row 0: slowDirect → relay wins; row 1: fastDirect → direct wins.
	if tab.Rows[0][4] != "relay" {
		t.Errorf("slow direct link should favor relay: %v", tab.Rows[0])
	}
	if tab.Rows[1][4] != "direct" {
		t.Errorf("fast direct link should favor direct: %v", tab.Rows[1])
	}
}

func TestE4Shape(t *testing.T) {
	tab, err := E4TransferSharing([]int{100})
	if err != nil {
		t.Fatal(err)
	}
	gain := parseF(t, tab.Rows[0][3])
	if gain < 1.8 || gain > 2.2 {
		t.Errorf("sharing should halve the traffic, got %.2fx", gain)
	}
}

func TestE5Shape(t *testing.T) {
	tab, err := E5PushOverCall(200, []float64{0.05})
	if err != nil {
		t.Fatal(err)
	}
	if gain := parseF(t, tab.Rows[0][3]); gain <= 1 {
		t.Errorf("pushing over the call should save bytes: %.2fx", gain)
	}
}

func TestE6Shape(t *testing.T) {
	tab, err := E6PickStrategies(4, 12)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]string{}
	for _, r := range tab.Rows {
		byName[r[0]] = r
	}
	nearest := parseF(t, byName["nearest"][1])
	first := parseF(t, byName["first"][1])
	if nearest > first {
		t.Errorf("nearest (%.1fms) should not be slower than first (%.1fms)", nearest, first)
	}
	if !strings.HasPrefix(byName["roundrobin"][3], "4 ") {
		t.Errorf("roundrobin should use all replicas: %v", byName["roundrobin"])
	}
}

func TestE7Shape(t *testing.T) {
	tab, err := E7Continuous(500, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows[0][2] != tab.Rows[1][2] {
		t.Errorf("strategies emitted different counts: %v vs %v", tab.Rows[0], tab.Rows[1])
	}
}

func TestE8Shape(t *testing.T) {
	tab, err := E8Optimizer(150)
	if err != nil {
		t.Fatal(err)
	}
	naive := parseF(t, tab.Rows[0][1])
	full := parseF(t, tab.Rows[1][1])
	if full >= naive {
		t.Errorf("full rules should beat naive on bytes: %v vs %v", full, naive)
	}
}

func TestE9Shape(t *testing.T) {
	tab, err := E9SoftwareDist([]int{3, 7}, 40)
	if err != nil {
		t.Fatal(err)
	}
	g3 := parseF(t, tab.Rows[0][3])
	g7 := parseF(t, tab.Rows[1][3])
	if g7 <= g3 {
		t.Errorf("origin saving should grow with mirrors: %.1f vs %.1f", g3, g7)
	}
}

func TestE10Shape(t *testing.T) {
	tab, err := E10Activation(3)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows[0][3] != tab.Rows[1][3] {
		t.Errorf("eager and lazy must agree on results: %v vs %v", tab.Rows[0], tab.Rows[1])
	}
}

func TestE11Shape(t *testing.T) {
	tab, err := E11Views(3, 150, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	noView, viewsAll := tab.Rows[0], tab.Rows[2]
	if parseF(t, viewsAll[1]) >= parseF(t, noView[1]) {
		t.Errorf("views at every client should ship fewer bytes: %s vs %s", viewsAll[1], noView[1])
	}
	if parseF(t, viewsAll[3]) >= parseF(t, noView[3]) {
		t.Errorf("view-local queries should be faster: %sms vs %sms", viewsAll[3], noView[3])
	}
	for _, r := range tab.Rows[1:] {
		if r[4] != noView[4] {
			t.Errorf("configs disagree on results: %v vs %v", r, noView)
		}
	}
}

func TestE12Shape(t *testing.T) {
	tab, err := E12ChurnMaintenance(150, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	full, inc := tab.Rows[0], tab.Rows[1]
	if parseF(t, inc[1]) >= parseF(t, full[1]) {
		t.Errorf("provenance maintenance should ship fewer bytes under churn: %s vs %s",
			inc[1], full[1])
	}
	if inc[4] != full[4] {
		t.Errorf("configs disagree on view rows: %v vs %v", inc, full)
	}
}

func TestE13Shape(t *testing.T) {
	tab, err := E13SessionPlanCache(150, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	perQuery, cached, prepared := tab.Rows[0], tab.Rows[1], tab.Rows[2]
	// The baseline optimizes all 40 calls; the cached modes run the
	// search once per distinct shape (4).
	if perQuery[2] != "40" {
		t.Errorf("optimize-per-query should plan every call: optRuns = %s", perQuery[2])
	}
	for _, r := range [][]string{cached, prepared} {
		if r[2] != "4" {
			t.Errorf("%s should plan once per shape: optRuns = %s", r[0], r[2])
		}
		if r[6] != perQuery[6] {
			t.Errorf("%s disagrees on results: %s vs %s", r[0], r[6], perQuery[6])
		}
		// The latency win is asserted via the deterministic counters
		// (36 optimizer searches skipped), not wall-clock, which is
		// scheduler-dependent on loaded CI runners; axmlbench reports
		// the measured times.
	}
}

func TestTablePrint(t *testing.T) {
	tab := &Table{
		ID: "EX", Title: "test", Anchor: "none",
		Header: []string{"a", "longer"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  "a note",
	}
	var sb strings.Builder
	tab.Print(&sb)
	out := sb.String()
	for _, want := range []string{"EX — test", "a    longer", "333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed table missing %q:\n%s", want, out)
		}
	}
}

func TestE14Shape(t *testing.T) {
	pts, tab, err := E14Streaming([]int{200, 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || len(tab.Rows) != 2 {
		t.Fatalf("points = %d, rows = %d", len(pts), len(tab.Rows))
	}
	for _, pt := range pts {
		if pt.Rows == 0 {
			t.Fatalf("size %d produced no rows", pt.Size)
		}
	}
	// The first row must leave well before the cursor is drained
	// (draining is O(total), the first row O(source scan + 1 row)): a
	// gain near 1 means something materialized the result first.
	last := pts[len(pts)-1]
	if last.FirstRowGain < 2 {
		t.Errorf("first row not streamed ahead of evaluation at size %d: gain %.2fx (drain %.3fms, first row %.3fms)",
			last.Size, last.FirstRowGain, last.CursorTotalMs, last.CursorFirstRowMs)
	}
}

func TestE15Shape(t *testing.T) {
	pt, tab, err := E15AdaptivePlacement(100, 3, 9, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The acceptance criteria of the adaptive loop, all deterministic
	// (virtual clock and byte counters, no wall-clock): fewer bytes
	// shipped, lower median latency, and a placement that settles.
	if pt.AdaptiveBytes >= pt.StaticBytes {
		t.Errorf("adaptive shipped %d bytes vs static %d", pt.AdaptiveBytes, pt.StaticBytes)
	}
	if pt.AdaptiveMedianMs >= pt.StaticMedianMs {
		t.Errorf("adaptive median %.2fms vs static %.2fms", pt.AdaptiveMedianMs, pt.StaticMedianMs)
	}
	if !pt.Converged {
		t.Errorf("placement did not converge: %d actions, last in round %d", pt.Actions, pt.LastActionRound)
	}
	if pt.Actions == 0 {
		t.Error("adaptive run took no placement actions at all")
	}
}
