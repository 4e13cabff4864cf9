package analysis

import (
	"go/types"
	"reflect"
)

// A Fact is a typed datum an analyzer exports about a package-level
// object for dependent packages to import (the x/tools go/analysis
// facts mechanism, reduced to object facts). Concrete fact types are
// pointer types (e.g. *hotalloc.Allocates) declared via
// Analyzer.FactTypes.
type Fact interface {
	// AFact is a marker method; it has no behaviour.
	AFact()
}

// ObjectKey names a package-level object stably across packages:
// "Func" for functions and variables, "Recv.Method" for methods (the
// pointer star of the receiver is dropped, so (*T).M and T.M share a
// key — a types.Func's name/receiver pair is unique either way).
func ObjectKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return named.Obj().Name() + "." + fn.Name()
			}
		}
	}
	return obj.Name()
}

// FactStore accumulates object facts for a whole analysis session:
// every (analyzer, package, object) maps to at most one fact (a
// second export overwrites, matching x/tools semantics).
type FactStore struct {
	facts map[storeKey]Fact
}

type storeKey struct {
	analyzer string
	pkgPath  string
	object   string
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{facts: map[storeKey]Fact{}}
}

func (s *FactStore) put(analyzer, pkgPath, object string, f Fact) {
	s.facts[storeKey{analyzer, pkgPath, object}] = f
}

// get copies the stored fact into dst (a non-nil pointer of the
// stored concrete type) and reports whether one was present.
func (s *FactStore) get(analyzer, pkgPath, object string, dst Fact) bool {
	f, ok := s.facts[storeKey{analyzer, pkgPath, object}]
	if !ok {
		return false
	}
	dv := reflect.ValueOf(dst)
	sv := reflect.ValueOf(f)
	if dv.Kind() != reflect.Pointer || dv.IsNil() || dv.Type() != sv.Type() {
		return false
	}
	dv.Elem().Set(sv.Elem())
	return true
}
