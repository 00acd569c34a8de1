package ps

import "fmt"

// dictKey is the comparable projection of a key other than a name or a
// string. Integer and real keys with the same value collide, matching
// `eq`, and composite keys compare by identity.
type dictKey struct {
	kind Kind
	n    float64
	b    bool
	p    any
}

func keyOf(o Object) (dictKey, error) {
	switch o.Kind {
	case KInt:
		return dictKey{kind: KInt, n: float64(o.I)}, nil
	case KReal:
		return dictKey{kind: KInt, n: o.R}, nil
	case KBool:
		return dictKey{kind: KBool, b: o.B}, nil
	case KNull:
		return dictKey{kind: KNull}, nil
	case KArray:
		return dictKey{kind: KArray, p: o.A}, nil
	case KDict:
		return dictKey{kind: KDict, p: o.D}, nil
	case KOperator:
		return dictKey{kind: KOperator, p: o.Op}, nil
	case KExt:
		return dictKey{kind: KExt, p: o.X}, nil
	default:
		return dictKey{}, typecheck("dict key", o)
	}
}

func isText(o Object) bool { return o.Kind == KName || o.Kind == KString }

type dictEntry struct {
	key Object
	val Object
}

// Dict is a PostScript dictionary. Iteration order is insertion order,
// so `forall` and `==` are deterministic. Names and strings share key
// space (as in PostScript) and are looked up by their text; every other
// key goes through dictKey.
type Dict struct {
	text  map[string]int
	other map[dictKey]int // nil until a key that is not text is stored
	items []dictEntry
}

// NewDict returns an empty dictionary with room for capacity entries.
// The hint may be zero; dictionaries grow without bound, as in Level-2
// PostScript.
func NewDict(capacity int) *Dict {
	capacity = max(capacity, 0)
	return &Dict{text: make(map[string]int, capacity), items: make([]dictEntry, 0, capacity)}
}

// Len returns the number of key/value pairs.
func (d *Dict) Len() int { return len(d.items) }

// index returns the position of key's entry in d.items.
func (d *Dict) index(key Object) (int, bool) {
	if isText(key) {
		i, ok := d.text[key.S]
		return i, ok
	}
	k, err := keyOf(key)
	if err != nil {
		return 0, false
	}
	i, ok := d.other[k]
	return i, ok
}

// Get looks up key; ok reports whether it was present.
func (d *Dict) Get(key Object) (Object, bool) {
	i, ok := d.index(key)
	if !ok {
		return Object{}, false
	}
	return d.items[i].val, true
}

// GetName looks up a name key given as a Go string.
func (d *Dict) GetName(name string) (Object, bool) {
	i, ok := d.text[name]
	if !ok {
		return Object{}, false
	}
	return d.items[i].val, true
}

// Put stores val under key, replacing any existing binding.
func (d *Dict) Put(key, val Object) error {
	if i, ok := d.index(key); ok {
		d.items[i].val = val
		return nil
	}
	if err := d.reindex(key, len(d.items)); err != nil {
		return err
	}
	d.items = append(d.items, dictEntry{key: key, val: val})
	return nil
}

// PutName stores val under the name key given as a Go string.
func (d *Dict) PutName(name string, val Object) {
	if err := d.Put(LitName(name), val); err != nil {
		panic(fmt.Sprintf("ps: PutName(%q): %v", name, err))
	}
}

// Undef removes key if present.
func (d *Dict) Undef(key Object) {
	i, ok := d.index(key)
	if !ok {
		return
	}
	// key and every stored key are valid keys, so reindex cannot fail.
	d.reindex(key, -1)
	d.items = append(d.items[:i], d.items[i+1:]...)
	for j := i; j < len(d.items); j++ {
		d.reindex(d.items[j].key, j)
	}
}

// reindex records that key's entry is at position i of d.items, or
// forgets key when i is negative.
func (d *Dict) reindex(key Object, i int) error {
	if isText(key) {
		if i < 0 {
			delete(d.text, key.S)
		} else {
			d.text[key.S] = i
		}
		return nil
	}
	k, err := keyOf(key)
	if err != nil {
		return err
	}
	if i < 0 {
		delete(d.other, k)
		return nil
	}
	if d.other == nil {
		d.other = make(map[dictKey]int)
	}
	d.other[k] = i
	return nil
}

// Keys returns the keys in insertion order.
func (d *Dict) Keys() []Object {
	keys := make([]Object, len(d.items))
	for i, it := range d.items {
		keys[i] = it.key
	}
	return keys
}

// ForAll calls f on each pair in insertion order; a non-nil error stops
// the iteration and is returned.
func (d *Dict) ForAll(f func(k, v Object) error) error {
	// Iterate over a snapshot so that f may mutate d.
	snapshot := make([]dictEntry, len(d.items))
	copy(snapshot, d.items)
	for _, it := range snapshot {
		if err := f(it.key, it.val); err != nil {
			return err
		}
	}
	return nil
}
