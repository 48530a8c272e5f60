package analysis

import (
	"fmt"
	"go/types"
	"reflect"
)

// Fact is a typed statement an analyzer proves about a package-level
// object, exported during the producing package's pass and importable by
// every later pass that declared the fact's type. Implementations must be
// pointer types (Import copies into the caller's pointer) and carry the
// marker method:
//
//	type MayBlock struct{ Why string }
//	func (*MayBlock) AFact() {}
type Fact interface {
	AFact()
}

// factKey identifies one fact: the object it describes plus the fact's
// dynamic type (one object may carry several facts of different types).
type factKey struct {
	obj types.Object
	typ reflect.Type
}

// FactStore holds every fact exported so far in a driver run. It is keyed
// by types.Object identity, which is stable across passes because the
// loader memoises each typechecked package: the *types.Func for a.F seen
// while checking package a is the same pointer its importers see.
type FactStore struct {
	m map[factKey]Fact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: make(map[factKey]Fact)}
}

// ExportObjectFact records fact for obj. The fact's type must appear in
// the running analyzer's FactTypes declaration, and obj must belong to a
// package (no builtins); both violations panic — they are analyzer bugs,
// not input conditions.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil || obj.Pkg() == nil {
		panic(fmt.Sprintf("%s: ExportObjectFact on object without a package", p.Analyzer.Name))
	}
	p.checkFactDeclared(fact)
	if p.facts == nil {
		return
	}
	p.facts.m[factKey{obj: obj, typ: reflect.TypeOf(fact)}] = fact
}

// ImportObjectFact copies the fact recorded for obj into fact (which must
// be a pointer of a declared fact type) and reports whether one existed.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	p.checkFactDeclared(fact)
	if p.facts == nil || obj == nil {
		return false
	}
	got, ok := p.facts.m[factKey{obj: obj, typ: reflect.TypeOf(fact)}]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(got).Elem())
	return true
}

// HasObjectFact reports whether obj carries a fact of the same type as
// fact, without copying it.
func (p *Pass) HasObjectFact(obj types.Object, fact Fact) bool {
	p.checkFactDeclared(fact)
	if p.facts == nil || obj == nil {
		return false
	}
	_, ok := p.facts.m[factKey{obj: obj, typ: reflect.TypeOf(fact)}]
	return ok
}

func (p *Pass) checkFactDeclared(fact Fact) {
	t := reflect.TypeOf(fact)
	if t == nil || t.Kind() != reflect.Pointer {
		panic(fmt.Sprintf("%s: fact %T is not a pointer type", p.Analyzer.Name, fact))
	}
	for _, d := range p.Analyzer.FactTypes {
		if reflect.TypeOf(d) == t {
			return
		}
	}
	panic(fmt.Sprintf("%s: fact type %T not declared in FactTypes", p.Analyzer.Name, fact))
}

// Len returns the number of facts recorded.
func (s *FactStore) Len() int { return len(s.m) }
