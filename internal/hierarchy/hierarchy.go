package hierarchy

import (
	"errors"
	"fmt"
	"slices"
)

// Errors returned by Hierarchy operations.
var (
	ErrBadLevel     = errors.New("hierarchy: level out of range")
	ErrUnknownValue = errors.New("hierarchy: unknown attribute value")
	ErrUnknownID    = errors.New("hierarchy: unknown id")
	ErrBadPath      = errors.New("hierarchy: path length does not match hierarchy depth")
	ErrInconsistent = errors.New("hierarchy: value already registered under a different parent")
	ErrFull         = errors.New("hierarchy: level is full (2^28 values)")
)

// Hierarchy is one concept hierarchy: the dynamically maintained dictionary
// of attribute values of a single dimension, their interned IDs, and the
// father relation between them (§3.1 of the paper).
//
// The hierarchy has Depth() named levels. Level 0 holds the leaves (the
// finest attribute, e.g. Customer ID) and level Depth()-1 holds the coarsest
// named attribute (e.g. Region). Above all named levels sits the implicit
// root ALL.
//
// A Hierarchy is not safe for concurrent mutation; the DC-tree serializes
// access through its own lock.
type Hierarchy struct {
	name       string
	levelNames []string // index = level; 0 is the leaf level

	// parents and valueNames are dense per-level tables indexed by ID
	// code: the father dictionary and the value strings. Dense slices keep
	// AncestorAt — the single hottest operation of the index — free of
	// map lookups.
	parents    [][]ID
	valueNames [][]string
	byLevel    [][]ID // per level, IDs in insertion (total) order
	intern     []map[scopedKey]ID

	// above holds the composed father tables: above[from][k] maps the code
	// of a level-from value to its ancestor at level from+2+k, so that
	// lifting a value any number of levels is one indexed load (see
	// AncestorTable). Every table is as long as parents[from]: registration
	// appends to all of them, decoding rebuilds them.
	above [][][]ID

	// head and next are the father relation read downward, as append-only
	// child lists: head[level][c] is the code of the newest child (at
	// level-1) of MakeID(level, c), next[level][c] the code of the next
	// older child of MakeID(level, c)'s father; NoChild ends a list. Leaves
	// have no head row and top-level values no next row (their father is
	// ALL, whose children are the whole top level). Registration prepends in
	// O(1), decoding rebuilds them (see ChildLinks).
	head, next [][]uint32

	// onRegister, when set, observes every NEW value registration (never
	// lookups of existing values). The durable tree uses it to frame
	// dictionary deltas into the WAL so records can carry interned IDs
	// instead of full string paths.
	onRegister RegisterFunc
}

// RegisterFunc observes one new value registration: the freshly minted id,
// its parent (ALL for top-level values) and the value's name.
type RegisterFunc func(id, parent ID, name string)

// SetRegisterHook installs fn to be called on every registration of a value
// that did not exist before (a nil fn removes the hook). Replay-path
// restores via RestoreValue do not fire the hook: they re-apply deltas that
// are already in the log.
func (h *Hierarchy) SetRegisterHook(fn RegisterFunc) { h.onRegister = fn }

// New creates an empty hierarchy for one dimension. levelNames are ordered
// from the leaf level upward, e.g.
//
//	New("Customer", "Customer", "MktSegment", "Nation", "Region")
//
// declares levels 0..3; ALL sits implicitly above "Region".
func New(name string, levelNames ...string) (*Hierarchy, error) {
	if len(levelNames) == 0 {
		return nil, fmt.Errorf("%w: a hierarchy needs at least one level", ErrBadLevel)
	}
	if len(levelNames) > MaxLevel+1 {
		return nil, fmt.Errorf("%w: at most %d levels supported", ErrBadLevel, MaxLevel+1)
	}
	h := &Hierarchy{
		name:       name,
		levelNames: append([]string(nil), levelNames...),
		parents:    make([][]ID, len(levelNames)),
		valueNames: make([][]string, len(levelNames)),
		byLevel:    make([][]ID, len(levelNames)),
		intern:     make([]map[scopedKey]ID, len(levelNames)),
		above:      make([][][]ID, len(levelNames)),
		head:       make([][]uint32, len(levelNames)),
		next:       make([][]uint32, len(levelNames)),
	}
	for i := range h.intern {
		h.intern[i] = make(map[scopedKey]ID)
		if skips := len(levelNames) - 2 - i; skips > 0 {
			h.above[i] = make([][]ID, skips)
		}
	}
	return h, nil
}

// MustNew is New but panics on error; intended for static schema literals.
func MustNew(name string, levelNames ...string) *Hierarchy {
	h, err := New(name, levelNames...)
	if err != nil {
		panic(err)
	}
	return h
}

// Name returns the dimension name the hierarchy describes.
func (h *Hierarchy) Name() string { return h.name }

// Depth returns the number of named levels (excluding ALL).
func (h *Hierarchy) Depth() int { return len(h.levelNames) }

// TopLevel returns the highest named level, Depth()-1.
func (h *Hierarchy) TopLevel() int { return len(h.levelNames) - 1 }

// LevelName returns the attribute name of a level (0 = leaf).
func (h *Hierarchy) LevelName(level int) (string, error) {
	if level < 0 || level >= len(h.levelNames) {
		return "", fmt.Errorf("%w: %d", ErrBadLevel, level)
	}
	return h.levelNames[level], nil
}

// Register interns one full concept path ordered from the top named level
// down to the leaf, creating any values that do not exist yet, and returns
// the leaf ID. For the Customer hierarchy above:
//
//	leaf, err := h.Register("Europe", "Germany", "Automobiles", "Customer#42")
//
// Registration is how the DC-tree maintains its dictionaries dynamically:
// new products, customers, etc. slot into the partial ordering naturally
// (Fig. 2 of the paper), with no renumbering of existing values.
//
// A value string may repeat under different parents (market segment names
// repeat per nation); values are identified by their full path. Register
// returns ErrInconsistent only if the same (level, parent, name) triple was
// somehow interned with a conflicting ID, which cannot happen through this
// API.
func (h *Hierarchy) Register(pathTopDown ...string) (ID, error) {
	if len(pathTopDown) != len(h.levelNames) {
		return 0, fmt.Errorf("%w: got %d components, hierarchy %q has %d levels",
			ErrBadPath, len(pathTopDown), h.name, len(h.levelNames))
	}
	parent := ALL
	// Walk from the top named level (h.TopLevel()) down to level 0.
	for i, component := range pathTopDown {
		level := h.TopLevel() - i
		id, err := h.registerChild(level, parent, component)
		if err != nil {
			return 0, err
		}
		parent = id
	}
	return parent, nil
}

// registerChild interns one value at the given level under the given parent.
func (h *Hierarchy) registerChild(level int, parent ID, name string) (ID, error) {
	key := scopedKey{parent, name}
	if id, ok := h.intern[level][key]; ok {
		if h.parents[level][id.Code()] != parent {
			return 0, fmt.Errorf("%w: %q at level %d", ErrInconsistent, name, level)
		}
		return id, nil
	}
	if len(h.byLevel[level]) > MaxCode {
		return 0, fmt.Errorf("%w: level %d of %q", ErrFull, level, h.name)
	}
	id := h.add(level, key)
	h.extend(level, parent)
	if h.onRegister != nil {
		h.onRegister(id, parent, name)
	}
	return id, nil
}

// RestoreValue re-applies one logged registration delta: value name under
// parent must receive exactly id. It is idempotent — a value already
// registered with the same identity is a no-op — because recovery can
// replay deltas whose registration is also present in a fuzzily captured
// checkpoint. Any OTHER mismatch (a code that would leave a hole in the
// dense per-level numbering, a different parent, a conflicting existing ID)
// means the log and the dictionary disagree and fails closed. The
// registration hook deliberately does not fire: the delta being restored is
// already in the log.
func (h *Hierarchy) RestoreValue(id, parent ID, name string) error {
	level := id.Level()
	if level >= len(h.levelNames) {
		return fmt.Errorf("%w: %d in delta for %q", ErrBadLevel, level, h.name)
	}
	key := scopedKey{parent, name}
	if have, ok := h.intern[level][key]; ok {
		if have != id {
			return fmt.Errorf("%w: delta %v for %q/%q, registered as %v",
				ErrInconsistent, id, h.name, name, have)
		}
		return nil // checkpoint already carried this registration
	}
	if uint32(len(h.byLevel[level])) != id.Code() {
		return fmt.Errorf("%w: delta %v for %q would leave a code hole (next code %d)",
			ErrInconsistent, id, h.name, len(h.byLevel[level]))
	}
	if level == h.TopLevel() {
		if !parent.IsALL() {
			return fmt.Errorf("%w: top-level delta %v has parent %v", ErrInconsistent, id, parent)
		}
	} else if parent.Level() != level+1 || !h.registered(parent) {
		return fmt.Errorf("%w: delta %v parent %v not registered one level up",
			ErrInconsistent, id, parent)
	}
	h.add(level, key)
	h.extend(level, parent)
	return nil
}

// scopedKey scopes a value name by its parent so that identical strings
// under different parents (e.g. per-nation market segments) stay distinct.
type scopedKey struct {
	parent ID
	name   string
}

// add files a new value under the next free code of its level.
func (h *Hierarchy) add(level int, key scopedKey) ID {
	id := MakeID(level, uint32(len(h.byLevel[level])))
	h.intern[level][key] = id
	h.byLevel[level] = append(h.byLevel[level], id)
	h.parents[level] = append(h.parents[level], key.parent)
	h.valueNames[level] = append(h.valueNames[level], key.name)
	return id
}

// extend files the newest level-level value, whose father is parent, in the
// composed tables and the child lists. parent's own rows are already
// complete: values are registered top-down.
func (h *Hierarchy) extend(level int, parent ID) {
	for k := range h.above[level] {
		h.above[level][k] = append(h.above[level][k], h.AncestorTable(level+1, level+2+k)[parent.Code()])
	}
	if level > 0 {
		h.head[level] = append(h.head[level], NoChild)
	}
	if level < h.TopLevel() {
		code, heads := uint32(len(h.next[level])), h.head[level+1]
		h.next[level] = append(h.next[level], heads[parent.Code()])
		heads[parent.Code()] = code
	}
}

// rebuild recomputes every composed table and child list from the father
// tables, which the caller has validated. Tables are composed top level
// first so that each row composes from finished ones; children are linked
// in code order, so the lists come out as registration leaves them.
func (h *Hierarchy) rebuild() {
	for level := len(h.above) - 1; level >= 0; level-- {
		for k := range h.above[level] {
			up := h.AncestorTable(level+1, level+2+k)
			tab := make([]ID, len(h.parents[level]))
			for c, p := range h.parents[level] {
				tab[c] = up[p.Code()]
			}
			h.above[level][k] = tab
		}
	}
	for level := 1; level <= h.TopLevel(); level++ {
		heads := make([]uint32, len(h.parents[level]))
		for c := range heads {
			heads[c] = NoChild
		}
		next := make([]uint32, len(h.parents[level-1]))
		for c, p := range h.parents[level-1] {
			next[c] = heads[p.Code()]
			heads[p.Code()] = uint32(c)
		}
		h.head[level], h.next[level-1] = heads, next
	}
}

// NoChild ends a child list (see ChildLinks).
const NoChild = ^uint32(0)

// ChildLinks returns the child lists of a level (1 ≤ level ≤ TopLevel()):
// the children of MakeID(level, p) are the level-1 codes
//
//	for c := head[p]; c != NoChild; c = next[c]
//
// newest first. A walk down a hierarchy through them costs what it reaches,
// never a pass over a level — the downward counterpart of AncestorTable,
// for query-time mask builds. Both slices are owned by the hierarchy and
// must not be modified; it panics on a level out of range.
func (h *Hierarchy) ChildLinks(level int) (head, next []uint32) {
	return h.head[level], h.next[level-1]
}

// AncestorTable returns the dense table that lifts level-from values to
// level to (from < to ≤ TopLevel()): entry c is the ancestor at level to of
// MakeID(from, c). It is AncestorAt without the checks and the walk — one
// indexed load per value — for the insert and split paths, which lift whole
// value sets whose IDs are known to be registered. The slice is owned by
// the hierarchy and must not be modified; it panics on levels out of range.
func (h *Hierarchy) AncestorTable(from, to int) []ID {
	if to == from+1 {
		return h.parents[from]
	}
	return h.above[from][to-from-2]
}

// parentOf returns the father of a registered ID via the dense tables.
func (h *Hierarchy) parentOf(id ID) (ID, bool) {
	if id.IsALL() {
		return ALL, true
	}
	level := id.Level()
	if level >= len(h.parents) || int(id.Code()) >= len(h.parents[level]) {
		return 0, false
	}
	return h.parents[level][id.Code()], true
}

// registered reports whether an ID was interned in this hierarchy.
func (h *Hierarchy) registered(id ID) bool {
	_, ok := h.parentOf(id)
	return ok && !id.IsALL()
}

// Lookup finds the ID of a value by its full top-down path.
func (h *Hierarchy) Lookup(pathTopDown ...string) (ID, error) {
	if len(pathTopDown) > len(h.levelNames) {
		return 0, fmt.Errorf("%w: got %d components, hierarchy %q has %d levels",
			ErrBadPath, len(pathTopDown), h.name, len(h.levelNames))
	}
	parent := ALL
	for i, component := range pathTopDown {
		level := h.TopLevel() - i
		id, ok := h.intern[level][scopedKey{parent, component}]
		if !ok {
			return 0, fmt.Errorf("%w: %q at level %d of %q", ErrUnknownValue, component, level, h.name)
		}
		parent = id
	}
	return parent, nil
}

// Parent returns the direct generalization of id (ALL for top-level values).
func (h *Hierarchy) Parent(id ID) (ID, error) {
	if id.IsALL() {
		return ALL, nil
	}
	p, ok := h.parentOf(id)
	if !ok {
		return 0, fmt.Errorf("%w: %v", ErrUnknownID, id)
	}
	return p, nil
}

// AncestorAt lifts id to the given level by following the father dictionary.
// level may be LevelALL (returns ALL) or any named level ≥ id.Level().
// Lifting to a level below id's own is an error: the partial ordering only
// generalizes upward.
func (h *Hierarchy) AncestorAt(id ID, level int) (ID, error) {
	if level == LevelALL {
		return ALL, nil
	}
	if level < 0 || level >= len(h.levelNames) {
		return 0, fmt.Errorf("%w: %d", ErrBadLevel, level)
	}
	if id.IsALL() {
		return 0, fmt.Errorf("%w: cannot specialize ALL to level %d", ErrBadLevel, level)
	}
	if level < id.Level() {
		return 0, fmt.Errorf("%w: cannot lower %v to level %d", ErrBadLevel, id, level)
	}
	cur := id
	for cur.Level() < level {
		p, ok := h.parentOf(cur)
		if !ok {
			return 0, fmt.Errorf("%w: %v", ErrUnknownID, cur)
		}
		cur = p
	}
	return cur, nil
}

// Under reports the partial ordering a ⪯ b of Definition 1: a equals b, b is
// ALL, or a is a (direct or indirect) descendant of b in the hierarchy.
func (h *Hierarchy) Under(a, b ID) bool {
	if b.IsALL() || a == b {
		return true
	}
	if a.IsALL() || a.Level() >= b.Level() {
		return false
	}
	anc, err := h.AncestorAt(a, b.Level())
	return err == nil && anc == b
}

// ValuesAt returns the IDs registered at a level, in insertion order.
// The returned slice is owned by the hierarchy; callers must not mutate it.
func (h *Hierarchy) ValuesAt(level int) ([]ID, error) {
	if level == LevelALL {
		return []ID{ALL}, nil
	}
	if level < 0 || level >= len(h.levelNames) {
		return nil, fmt.Errorf("%w: %d", ErrBadLevel, level)
	}
	return h.byLevel[level], nil
}

// CountAt returns the number of values registered at a level.
func (h *Hierarchy) CountAt(level int) (int, error) {
	if level == LevelALL {
		return 1, nil
	}
	if level < 0 || level >= len(h.levelNames) {
		return 0, fmt.Errorf("%w: %d", ErrBadLevel, level)
	}
	return len(h.byLevel[level]), nil
}

// ValueName returns the original string of an interned value.
func (h *Hierarchy) ValueName(id ID) (string, error) {
	if id.IsALL() {
		return "ALL", nil
	}
	level := id.Level()
	if level >= len(h.valueNames) || int(id.Code()) >= len(h.valueNames[level]) {
		return "", fmt.Errorf("%w: %v", ErrUnknownID, id)
	}
	return h.valueNames[level][id.Code()], nil
}

// Path renders the full top-down path of an ID, e.g.
// "Europe/Germany/Automobiles/Customer#42".
func (h *Hierarchy) Path(id ID) (string, error) {
	if id.IsALL() {
		return "ALL", nil
	}
	var parts []string
	cur := id
	for !cur.IsALL() {
		name, err := h.ValueName(cur)
		if err != nil {
			return "", err
		}
		parts = append(parts, name)
		p, err := h.Parent(cur)
		if err != nil {
			return "", err
		}
		cur = p
	}
	// Reverse to top-down order.
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return joinSlash(parts), nil
}

func joinSlash(parts []string) string {
	n := 0
	for _, p := range parts {
		n += len(p) + 1
	}
	buf := make([]byte, 0, n)
	for i, p := range parts {
		if i > 0 {
			buf = append(buf, '/')
		}
		buf = append(buf, p...)
	}
	return string(buf)
}

// Children returns the direct specializations of id at the level below it,
// in insertion order. For ALL it returns the values of the top named level.
// It walks id's child list, so it costs what it returns.
func (h *Hierarchy) Children(id ID) ([]ID, error) {
	switch {
	case id.IsALL():
		return slices.Clone(h.byLevel[h.TopLevel()]), nil
	case id.Level() == 0:
		return nil, nil
	case !h.registered(id):
		return nil, fmt.Errorf("%w: %v", ErrUnknownID, id)
	}
	level := id.Level()
	head, next := h.ChildLinks(level)
	var out []ID
	for c := head[id.Code()]; c != NoChild; c = next[c] {
		out = append(out, MakeID(level-1, c))
	}
	slices.Reverse(out) // the lists run newest first
	return out, nil
}

// LeafCountUnder returns the number of registered leaves below id (or the
// total number of leaves for ALL). Used by workload generators to reason
// about selectivity. It walks the child lists of id's subtree.
func (h *Hierarchy) LeafCountUnder(id ID) (int, error) {
	if id.IsALL() {
		return len(h.byLevel[0]), nil
	}
	if !h.registered(id) {
		return 0, fmt.Errorf("%w: %v", ErrUnknownID, id)
	}
	return h.leavesUnder(id.Level(), id.Code()), nil
}

func (h *Hierarchy) leavesUnder(level int, code uint32) int {
	if level == 0 {
		return 1
	}
	head, next := h.ChildLinks(level)
	n := 0
	for c := head[code]; c != NoChild; c = next[c] {
		n += h.leavesUnder(level-1, c)
	}
	return n
}

// ParentTable returns the dense father table of a level: entry c is the
// parent ID of MakeID(level, c). The returned slice is owned by the
// hierarchy and must not be modified. It is AncestorTable(level, level+1)
// with the level checked, and for the top level the table of ALLs.
func (h *Hierarchy) ParentTable(level int) ([]ID, error) {
	if level < 0 || level >= len(h.levelNames) {
		return nil, fmt.Errorf("%w: %d", ErrBadLevel, level)
	}
	return h.parents[level], nil
}

// FindByName returns every ID at the given level whose value name equals
// name. Several IDs can match: value names are scoped by their parent
// (e.g. the market segment "AUTOMOBILE" exists under every nation), and a
// by-name query means "all of them".
func (h *Hierarchy) FindByName(level int, name string) ([]ID, error) {
	if level < 0 || level >= len(h.levelNames) {
		return nil, fmt.Errorf("%w: %d", ErrBadLevel, level)
	}
	var out []ID
	for _, id := range h.byLevel[level] {
		if h.valueNames[level][id.Code()] == name {
			out = append(out, id)
		}
	}
	return out, nil
}

// LevelIndex resolves a level by its attribute name (e.g. "Nation" -> 2).
func (h *Hierarchy) LevelIndex(levelName string) (int, error) {
	for i, n := range h.levelNames {
		if n == levelName {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%w: hierarchy %q has no level %q", ErrBadLevel, h.name, levelName)
}

// Validate checks internal consistency: every non-top value has a parent one
// level up, codes are dense per level, and names are interned. It is used by
// tests and by dctool's fsck mode.
func (h *Hierarchy) Validate() error {
	for level, ids := range h.byLevel {
		for i, id := range ids {
			if id.Level() != level {
				return fmt.Errorf("hierarchy %q: id %v filed at level %d", h.name, id, level)
			}
			if id.Code() != uint32(i) {
				return fmt.Errorf("hierarchy %q: id %v has non-dense code at index %d", h.name, id, i)
			}
			p, ok := h.parentOf(id)
			if !ok {
				return fmt.Errorf("hierarchy %q: id %v has no parent", h.name, id)
			}
			wantLevel := level + 1
			if level == h.TopLevel() {
				if !p.IsALL() {
					return fmt.Errorf("hierarchy %q: top value %v parent %v is not ALL", h.name, id, p)
				}
			} else if p.Level() != wantLevel {
				return fmt.Errorf("hierarchy %q: id %v parent %v not one level up", h.name, id, p)
			} else if int(p.Code()) >= len(h.byLevel[wantLevel]) {
				return fmt.Errorf("hierarchy %q: id %v parent %v not registered", h.name, id, p)
			}
			if _, err := h.ValueName(id); err != nil {
				return fmt.Errorf("hierarchy %q: id %v has no name", h.name, id)
			}
		}
	}
	return nil
}

// SortIDs sorts a slice of IDs in the canonical order used throughout the
// index: by level tag, then by code — i.e. plain numeric order on the packed
// representation.
func SortIDs(ids []ID) { slices.Sort(ids) }
