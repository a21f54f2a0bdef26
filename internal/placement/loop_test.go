package placement

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"axml/internal/netsim"
	"axml/internal/opt"
	"axml/internal/xmltree"
)

type peerBytes = map[netsim.PeerID]int64
type peerWeight = map[netsim.PeerID]float64

// fakeDeployment is an in-memory Deployment: canned copies and demand,
// an Apply that records the decision and moves the copies like a real
// one would. The base document of every view sits at "base".
type fakeDeployment struct {
	mu      sync.Mutex
	copies  map[string]peerBytes
	demand  map[string]peerWeight
	fail    map[string]error // view → what Apply answers
	applied []Decision

	busy       atomic.Int32
	overlapped atomic.Bool
	hold       time.Duration
}

// enter flags two rounds inside the deployment at once.
func (f *fakeDeployment) enter() func() {
	if f.busy.Add(1) > 1 {
		f.overlapped.Store(true)
	}
	time.Sleep(f.hold)
	return func() { f.busy.Add(-1) }
}

func (f *fakeDeployment) Observe(context.Context) Observation {
	defer f.enter()()
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []ViewLoad
	for name, at := range f.copies {
		v := ViewLoad{Name: name, Base: "base", SiteBytes: peerBytes{}, Demand: peerWeight{}}
		for p, b := range at {
			v.Sites = append(v.Sites, p)
			v.SiteBytes[p] = b
		}
		sort.Slice(v.Sites, func(i, j int) bool { return v.Sites[i] < v.Sites[j] })
		for p, w := range f.demand[name] {
			v.Demand[p] = w
		}
		out = append(out, v)
	}
	return Observation{Views: out}
}

func (f *fakeDeployment) Apply(_ context.Context, d Decision) error {
	defer f.enter()()
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.fail[d.View]; err != nil {
		return err
	}
	f.applied = append(f.applied, d)
	at := f.copies[d.View]
	switch d.Action {
	case "migrate":
		at[d.To] = at[d.From]
		delete(at, d.From)
	case "replicate":
		for _, b := range at {
			at[d.To] = max(at[d.To], b)
		}
	default:
		delete(at, d.From)
		if len(at) == 0 {
			delete(f.copies, d.View)
		}
	}
	return nil
}

func brief(ds []Decision) []string {
	var out []string
	for _, d := range ds {
		out = append(out, fmt.Sprintf("%s %s %s>%s", d.Action, d.View, d.From, d.To))
	}
	return out
}

// TestRoundPolicy pins the round policy once, for every deployment:
// cooldown, one planned action per view, failed actions, budget
// eviction and the log bound.
func TestRoundPolicy(t *testing.T) {
	perByte := opt.Weights{PerByte: 1} // benefit = bytes shipped, so the arithmetic below is checkable by hand
	type round struct {
		demand  map[string]peerWeight // replaces the deployment's demand when set
		heal    bool                  // clear the injected Apply failures first
		want    []string
		wantErr []string // substrings of the joined error
		cooling []string // views with a cooldown entry after the round
	}
	cases := []struct {
		name   string
		cfg    Config
		copies map[string]peerBytes
		fail   map[string]error
		rounds []round
		log    []string // retained decision log after the last round
	}{
		{
			// The demand flips the moment the view lands, so it wants to
			// move back at once: it rests exactly Cooldown rounds, and its
			// entry is gone once nothing cools.
			name:   "a view rests exactly Cooldown rounds",
			cfg:    Config{MaxReplicas: 1, Cooldown: 2},
			copies: map[string]peerBytes{"v": {"a": 1000}},
			rounds: []round{
				{demand: map[string]peerWeight{"v": {"b": 20}}, want: []string{"migrate v a>b"}, cooling: []string{"v"}},
				{demand: map[string]peerWeight{"v": {"a": 20}}, cooling: []string{"v"}},
				{},
				{want: []string{"migrate v b>a"}, cooling: []string{"v"}},
				{cooling: []string{"v"}},
				{},
				{},
			},
			log: []string{"migrate v a>b", "migrate v b>a"},
		},
		{
			// With room for a second replica a replicate and a migrate
			// to either reader all clear the margin for v; the best one
			// runs, alone.
			name:   "one planned action per view per round",
			cfg:    Config{MaxReplicas: 2, Cooldown: 1},
			copies: map[string]peerBytes{"v": {"a": 1000}, "w": {"a": 1000}},
			rounds: []round{
				{demand: map[string]peerWeight{"v": {"b": 20, "c": 15}, "w": {"c": 20}},
					want: []string{"migrate v a>b", "migrate w a>c"}, cooling: []string{"v", "w"}},
			},
			log: []string{"migrate v a>b", "migrate w a>c"},
		},
		{
			name:   "a failed action neither cools nor logs, and stops no other",
			cfg:    Config{MaxReplicas: 1, Cooldown: 1},
			copies: map[string]peerBytes{"v": {"a": 1000}, "w": {"a": 1000}},
			fail:   map[string]error{"v": errors.New("target unreachable")},
			rounds: []round{
				{demand: map[string]peerWeight{"v": {"b": 20}, "w": {"c": 20}},
					want: []string{"migrate w a>c"}, wantErr: []string{`migrate "v"`, "target unreachable"},
					cooling: []string{"w"}},
				{heal: true, want: []string{"migrate v a>b"}, cooling: []string{"v"}},
			},
			log: []string{"migrate w a>c", "migrate v a>b"},
		},
		{
			// All three are read at p only. Benefit per byte of the copy
			// at p, priced on that copy: big 1·(100+64)−(5+64) over 100 =
			// 0.95, mid 3·(1000+64)−(50+64) over 1000 = 3.08, hot far
			// above. Priced on big's largest copy (10,000 bytes at the
			// base) it would read 95 and mid would go first — and alone.
			name: "eviction takes the lowest benefit per byte first, priced on the victim's own copy",
			cfg:  Config{Weights: perByte, Budgets: peerBytes{"p": 350}},
			copies: map[string]peerBytes{
				"big": {"p": 100, "base": 10000},
				"mid": {"p": 1000},
				"hot": {"p": 300},
			},
			rounds: []round{
				{demand: map[string]peerWeight{"big": {"p": 1}, "mid": {"p": 3}, "hot": {"p": 50}},
					want: []string{"evict big p>", "evict mid p>"}},
			},
			log: []string{"evict big p>", "evict mid p>"},
		},
		{
			// Each move alone fits b's budget, so both pass the target
			// filter; together they do not, and the check after actuation
			// sheds the one with less demand behind it.
			name:   "two moves into one peer in one round meet the budget afterwards",
			cfg:    Config{MaxReplicas: 1, Weights: perByte, Budgets: peerBytes{"b": 1000}},
			copies: map[string]peerBytes{"m1": {"a": 600}, "m2": {"a": 600}},
			rounds: []round{
				{demand: map[string]peerWeight{"m1": {"b": 30}, "m2": {"b": 10}},
					want:    []string{"migrate m1 a>b", "migrate m2 a>b", "evict m2 b>"},
					cooling: []string{"m1", "m2"}},
			},
			log: []string{"migrate m1 a>b", "migrate m2 a>b", "evict m2 b>"},
		},
		{
			name: "the log keeps the newest LogSize decisions",
			cfg:  Config{MaxReplicas: 1, LogSize: 3},
			copies: map[string]peerBytes{
				"v1": {"a": 1000}, "v2": {"a": 1000}, "v3": {"a": 1000}, "v4": {"a": 1000}, "v5": {"a": 1000}},
			rounds: []round{
				{demand: map[string]peerWeight{"v1": {"b": 9}, "v2": {"b": 9}, "v3": {"b": 9}, "v4": {"b": 9}, "v5": {"b": 9}},
					want:    []string{"migrate v1 a>b", "migrate v2 a>b", "migrate v3 a>b", "migrate v4 a>b", "migrate v5 a>b"},
					cooling: []string{"v1", "v2", "v3", "v4", "v5"}},
			},
			log: []string{"migrate v3 a>b", "migrate v4 a>b", "migrate v5 a>b"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dep := &fakeDeployment{copies: tc.copies, fail: tc.fail}
			c := NewOver(dep, tc.cfg)
			for i, r := range tc.rounds {
				if r.demand != nil {
					dep.demand = r.demand
				}
				if r.heal {
					dep.fail = nil
				}
				made, err := c.Step(context.Background())
				if got := brief(made); !reflect.DeepEqual(got, r.want) {
					t.Fatalf("round %d: made %v, want %v", i+1, got, r.want)
				}
				if (err != nil) != (len(r.wantErr) > 0) {
					t.Fatalf("round %d: err = %v, want mentions of %v", i+1, err, r.wantErr)
				}
				for _, s := range r.wantErr {
					if !strings.Contains(err.Error(), s) {
						t.Errorf("round %d: err %q does not mention %q", i+1, err, s)
					}
				}
				var cooling []string
				for name := range c.cool {
					cooling = append(cooling, name)
				}
				sort.Strings(cooling)
				if !reflect.DeepEqual(cooling, r.cooling) {
					t.Errorf("round %d: cooling %v, want %v", i+1, c.cool, r.cooling)
				}
			}
			if got := brief(c.Decisions()); !reflect.DeepEqual(got, tc.log) {
				t.Errorf("log = %v, want %v", got, tc.log)
			}
		})
	}
}

// TestStepsAreSerialized: two callers of Step (the ticker and a STEP
// request, say) never have a round each inside the deployment at once.
func TestStepsAreSerialized(t *testing.T) {
	dep := &fakeDeployment{
		copies: map[string]peerBytes{"v": {"a": 1000}},
		demand: map[string]peerWeight{"v": {"b": 20}},
		hold:   time.Millisecond,
	}
	c := NewOver(dep, Config{MaxReplicas: 1, Cooldown: 1})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := c.Step(context.Background()); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if dep.overlapped.Load() {
		t.Error("two rounds were inside the deployment at once")
	}
	if c.round != 20 {
		t.Errorf("rounds = %d, want 20", c.round)
	}
}

// TestExportSkipsDocInventory: members of an older build still send the
// document inventory nothing reads; a fleet mid-restart keeps talking.
func TestExportSkipsDocInventory(t *testing.T) {
	e, err := ExportFromXML(xmltree.MustParse(
		`<x:demand member="a"><doc name="catalog" bytes="420"/><load doc="catalog" weight="2"/></x:demand>`))
	if err != nil {
		t.Fatal(err)
	}
	if e.Member != "a" || len(e.Loads) != 1 || e.Loads[0].Weight != 2 {
		t.Errorf("export = %+v", e)
	}
	if out := xmltree.Serialize(e.ToXML()); strings.Contains(out, "<doc") {
		t.Errorf("export still carries doc children: %s", out)
	}
}
