package plan

import (
	"reflect"
	"testing"

	"karma/internal/race"
)

// TestTemplateInstantiateMatchesCompile: instantiating a template, on a
// compiler that has since lowered other plans of other sizes, yields op
// for op what a fresh Compile of the template's plan yields, and the
// accessors return the plan ops the template was lowered from.
func TestTemplateInstantiateMatchesCompile(t *testing.T) {
	plans := []*Plan{swapRecomputePlan(160), kindsPlan(4, allKindsOrder), kindsPlan(1, []Kind{Fwd})}
	var c Compiler
	var tmpls []*Template
	for _, p := range plans {
		tp, err := c.Template(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		tmpls = append(tmpls, tp)
	}
	for i, p := range plans {
		want, err := p.Compile()
		if err != nil {
			t.Fatal(err)
		}
		tp := tmpls[i]
		if tp.Name() != p.Name || tp.Len() != len(want.Ops) {
			t.Fatalf("%s: template %q with %d ops, want %d", p.Name, tp.Name(), tp.Len(), len(want.Ops))
		}
		if got := c.Instantiate(tp); !reflect.DeepEqual(got, want.Ops) {
			t.Errorf("%s: instantiated ops differ from a fresh Compile", p.Name)
		}
		for j, op := range want.PlanOps {
			if tp.Op(j) != op || tp.Kind(j) != op.Kind {
				t.Errorf("%s: template op %d = %+v, want %+v", p.Name, j, tp.Op(j), op)
			}
		}
	}
	bad := &Plan{Name: "bad", NumBlocks: 1, Stages: []Stage{{Ops: []Op{{Kind: Bwd}}}}}
	_, err := c.Template(bad)
	if _, cerr := bad.Compile(); err == nil || err.Error() != cerr.Error() {
		t.Errorf("Template(bad) error %v, Compile error %v", err, cerr)
	}
}

// TestInstantiateSteadyStateAllocFree: once a Compiler has instantiated
// a template, instantiating it again allocates nothing.
func TestInstantiateSteadyStateAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var c Compiler
	tp, err := c.Template(swapRecomputePlan(160))
	if err != nil {
		t.Fatal(err)
	}
	c.Instantiate(tp)
	if allocs := testing.AllocsPerRun(50, func() { c.Instantiate(tp) }); allocs != 0 {
		t.Errorf("warm Instantiate allocated %.1f objects/op, want 0", allocs)
	}
}
