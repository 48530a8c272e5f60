package analysis

import (
	"go/token"
	"go/types"
	"testing"
)

type testFact struct{ N int }

func (*testFact) AFact() {}

type otherFact struct{ S string }

func (*otherFact) AFact() {}

func newTestPass(t *testing.T, name string, facts *FactStore, factTypes ...Fact) *Pass {
	t.Helper()
	a := &Analyzer{Name: name, FactTypes: factTypes, Run: func(*Pass) error { return nil }}
	p := NewPass(a, token.NewFileSet(), nil, "p", nil, nil, func(Diagnostic) {})
	p.SetFacts(facts)
	return p
}

func TestFactRoundTrip(t *testing.T) {
	store := NewFactStore()
	pkg := types.NewPackage("p", "p")
	obj := types.NewVar(token.Pos(10), pkg, "x", types.Typ[types.Int])

	producer := newTestPass(t, "producer", store, (*testFact)(nil))
	producer.ExportObjectFact(obj, &testFact{N: 7})

	// Facts are shared by fact TYPE, not by analyzer: a different
	// analyzer that declares the type sees the fact.
	consumer := newTestPass(t, "consumer", store, (*testFact)(nil))
	var got testFact
	if !consumer.ImportObjectFact(obj, &got) {
		t.Fatal("fact not found by consumer")
	}
	if got.N != 7 {
		t.Fatalf("got N=%d, want 7", got.N)
	}
	if !consumer.HasObjectFact(obj, &testFact{}) {
		t.Error("HasObjectFact = false")
	}

	// A different object, or a different fact type, finds nothing.
	other := types.NewVar(token.Pos(20), pkg, "y", types.Typ[types.Int])
	if consumer.ImportObjectFact(other, &got) {
		t.Error("fact found for object that has none")
	}
	withOther := newTestPass(t, "other", store, (*otherFact)(nil))
	var of otherFact
	if withOther.ImportObjectFact(obj, &of) {
		t.Error("fact of different type resolved")
	}
	if store.Len() != 1 {
		t.Errorf("store.Len = %d, want 1", store.Len())
	}
}

func TestFactImportCopies(t *testing.T) {
	store := NewFactStore()
	pkg := types.NewPackage("p", "p")
	obj := types.NewVar(token.Pos(1), pkg, "x", types.Typ[types.Int])
	p := newTestPass(t, "p", store, (*testFact)(nil))
	p.ExportObjectFact(obj, &testFact{N: 1})

	var a testFact
	p.ImportObjectFact(obj, &a)
	a.N = 99 // mutating the copy must not corrupt the store
	var b testFact
	p.ImportObjectFact(obj, &b)
	if b.N != 1 {
		t.Fatalf("store corrupted through imported copy: N=%d", b.N)
	}
}

func TestUndeclaredFactPanics(t *testing.T) {
	store := NewFactStore()
	pkg := types.NewPackage("p", "p")
	obj := types.NewVar(token.Pos(1), pkg, "x", types.Typ[types.Int])
	p := newTestPass(t, "p", store) // declares no fact types
	defer func() {
		if recover() == nil {
			t.Fatal("ExportObjectFact with undeclared fact type did not panic")
		}
	}()
	p.ExportObjectFact(obj, &testFact{})
}

func TestExportWithoutPackagePanics(t *testing.T) {
	store := NewFactStore()
	p := newTestPass(t, "p", store, (*testFact)(nil))
	defer func() {
		if recover() == nil {
			t.Fatal("ExportObjectFact on nil object did not panic")
		}
	}()
	p.ExportObjectFact(nil, &testFact{})
}
