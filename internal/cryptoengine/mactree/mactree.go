// Package mactree implements an m-ary MAC tree over a protected memory
// region, in the style of the CHTree/AEGIS scheme the paper evaluates in
// Section 5.3.3. Leaves are per-line MACs; each internal node is a truncated
// HMAC over the concatenation of its children; the root lives on-chip and is
// unconditionally trusted.
//
// The tree gives replay protection: a stale-but-correctly-MACed line cannot
// be substituted because its leaf digest no longer matches the path to the
// trusted root.
//
// Verification cost is what matters to the simulator: verifying a line walks
// from its leaf toward the root, and may stop early at any node the caller
// vouches for (modeling the on-chip hash-tree cache of verified nodes). The
// walk reports exactly which nodes it visited so the memory-system model can
// charge node fetches and hash latencies.
package mactree

import (
	"bytes"
	"fmt"

	"authpoint/internal/cryptoengine/hmac"
)

// NodeID names a tree node. Level 0 holds the per-line leaf digests; the
// level Levels()-1 holds the children of the trusted root.
type NodeID struct {
	Level int
	Index int
}

// Tree is an m-ary MAC tree. Node storage models the untrusted external
// memory (it can be tampered with); only the root digest is trusted.
type Tree struct {
	key       hmac.Key
	arity     int
	macSize   int
	numLeaves int
	// levels[l] stores the concatenated node digests of level l.
	// levels[0] has numLeaves digests; each higher level has
	// ceil(prev/arity) digests.
	levels [][]byte
	root   []byte
	// msg is the reusable MAC-message buffer (a Tree is not safe for
	// concurrent use).
	msg []byte
}

// New builds an empty tree (all-zero leaves) for numLeaves lines.
func New(key []byte, numLeaves, arity, macSize int) (*Tree, error) {
	t, err := alloc(key, numLeaves, arity, macSize)
	if err != nil {
		return nil, err
	}
	t.rebuild()
	return t, nil
}

// Build builds a tree whose leaf i holds leafData(i), the same tree that
// New followed by SetLeaf(i, leafData(i)) for every leaf produces. It sets
// every leaf digest first and then computes each internal node once, bottom
// up: O(n) MACs instead of SetLeaf's O(n·levels). leafData is called once
// per leaf, in index order, and its result is not retained.
func Build(key []byte, numLeaves, arity, macSize int, leafData func(i int) []byte) (*Tree, error) {
	t, err := alloc(key, numLeaves, arity, macSize)
	if err != nil {
		return nil, err
	}
	for i := 0; i < numLeaves; i++ {
		t.leafDigestInto(t.node(0, i), i, leafData(i))
	}
	t.rebuild()
	return t, nil
}

func alloc(key []byte, numLeaves, arity, macSize int) (*Tree, error) {
	if numLeaves <= 0 {
		return nil, fmt.Errorf("mactree: numLeaves must be positive, got %d", numLeaves)
	}
	if arity < 2 {
		return nil, fmt.Errorf("mactree: arity must be >= 2, got %d", arity)
	}
	if macSize <= 0 || macSize > hmac.Size {
		return nil, fmt.Errorf("mactree: macSize must be in 1..%d, got %d", hmac.Size, macSize)
	}
	t := &Tree{key: hmac.NewKey(key), arity: arity, macSize: macSize, numLeaves: numLeaves,
		root: make([]byte, macSize)}
	n := numLeaves
	for {
		t.levels = append(t.levels, make([]byte, n*macSize))
		if n == 1 {
			break
		}
		n = (n + arity - 1) / arity
	}
	return t, nil
}

// Clone returns an independent copy of the tree: node storage and root are
// copied, so tampering or updating either tree leaves the other as it was.
func (t *Tree) Clone() *Tree {
	c := *t
	c.levels = make([][]byte, len(t.levels))
	for l, row := range t.levels {
		c.levels[l] = bytes.Clone(row)
	}
	c.root = bytes.Clone(t.root)
	c.msg = nil
	return &c
}

// rebuild recomputes every internal node and the root from the leaves.
func (t *Tree) rebuild() {
	for l := 1; l < len(t.levels); l++ {
		for i := 0; i < t.nodeCount(l); i++ {
			t.recomputeNode(l, i)
		}
	}
	t.macOfChildrenInto(t.root, len(t.levels)-1, 0, 1)
}

// Levels returns the number of stored levels (leaf level included, trusted
// root excluded).
func (t *Tree) Levels() int { return len(t.levels) }

// NodeCount returns the number of nodes at a level.
func (t *Tree) NodeCount(level int) int { return t.nodeCount(level) }

func (t *Tree) nodeCount(level int) int { return len(t.levels[level]) / t.macSize }

// Arity returns the tree fan-out.
func (t *Tree) Arity() int { return t.arity }

// MacSize returns the digest size per node in bytes.
func (t *Tree) MacSize() int { return t.macSize }

// node returns the stored digest of a node.
func (t *Tree) node(level, index int) []byte {
	return t.levels[level][index*t.macSize : (index+1)*t.macSize]
}

// Node returns a copy of the stored digest of id (for inspection in tests).
func (t *Tree) Node(id NodeID) []byte {
	return append([]byte(nil), t.node(id.Level, id.Index)...)
}

// mac writes the truncated MAC of msg into dst (macSize bytes).
func (t *Tree) mac(dst, msg []byte) {
	sum := t.key.Mac(msg)
	copy(dst, sum[:t.macSize])
}

// leafDigestInto computes the digest of raw leaf data for leaf i into dst.
// The leaf index is mixed in so identical lines at different addresses have
// distinct leaves.
func (t *Tree) leafDigestInto(dst []byte, i int, leafData []byte) {
	msg := t.msg[:0]
	for b := 0; b < 8; b++ {
		msg = append(msg, byte(uint64(i)>>(8*b)))
	}
	msg = append(msg, leafData...)
	t.msg = msg
	t.mac(dst, msg)
}

// macOfChildrenInto computes into dst the digest of the node whose children
// are nodes firstChild..firstChild+nChildren-1 of childLevel (for childLevel
// == Levels()-1 and one child, that is the root computation).
func (t *Tree) macOfChildrenInto(dst []byte, childLevel, firstChild, nChildren int) {
	msg := t.msg[:0]
	v := uint64(childLevel)<<32 | uint64(firstChild)
	for b := 0; b < 8; b++ {
		msg = append(msg, byte(v>>(8*b)))
	}
	row := t.levels[childLevel]
	msg = append(msg, row[firstChild*t.macSize:(firstChild+nChildren)*t.macSize]...)
	t.msg = msg
	t.mac(dst, msg)
}

// children returns the first child index and child count of (level, index).
func (t *Tree) children(level, index int) (first, n int) {
	first = index * t.arity
	n = min(t.arity, t.nodeCount(level-1)-first)
	return first, n
}

func (t *Tree) recomputeNode(level, index int) {
	first, n := t.children(level, index)
	t.macOfChildrenInto(t.node(level, index), level-1, first, n)
}

// SetLeaf installs new leaf data for line i and updates the path to the
// root. It returns the node IDs rewritten (leaf upward), which the memory
// model charges as tree-update work on write-back.
func (t *Tree) SetLeaf(i int, leafData []byte) ([]NodeID, error) {
	if i < 0 || i >= t.numLeaves {
		return nil, fmt.Errorf("mactree: leaf %d out of range [0,%d)", i, t.numLeaves)
	}
	t.leafDigestInto(t.node(0, i), i, leafData)
	path := make([]NodeID, 1, len(t.levels))
	path[0] = NodeID{0, i}
	idx := i
	for l := 1; l < len(t.levels); l++ {
		idx /= t.arity
		t.recomputeNode(l, idx)
		path = append(path, NodeID{l, idx})
	}
	t.macOfChildrenInto(t.root, len(t.levels)-1, 0, 1)
	return path, nil
}

// VerifyLeaf checks leaf data for line i against the tree, walking upward
// and stopping at the first node for which trusted returns true (the on-chip
// node cache), or at the on-chip root. It returns whether verification
// succeeded and the nodes whose stored digests were consulted (the memory
// model charges a fetch per consulted node group and a hash latency per
// level climbed).
//
// trusted may be nil, meaning only the root is trusted (worst case: the walk
// always reaches the root).
func (t *Tree) VerifyLeaf(i int, leafData []byte, trusted func(NodeID) bool) (bool, []NodeID) {
	if i < 0 || i >= t.numLeaves {
		return false, nil
	}
	var visited []NodeID
	var buf [hmac.Size]byte
	computed := buf[:t.macSize]
	t.leafDigestInto(computed, i, leafData)
	id := NodeID{0, i}
	for {
		visited = append(visited, id)
		stored := t.node(id.Level, id.Index)
		if !equal(computed, stored) {
			return false, visited
		}
		if trusted != nil && trusted(id) {
			return true, visited
		}
		// Climb: the parent digest must match the MAC over this node's
		// sibling group.
		if id.Level == len(t.levels)-1 {
			// Parent is the trusted on-chip root.
			t.macOfChildrenInto(computed, id.Level, 0, t.nodeCount(id.Level))
			return equal(computed, t.root), visited
		}
		parent := NodeID{id.Level + 1, id.Index / t.arity}
		first, n := t.children(parent.Level, parent.Index)
		t.macOfChildrenInto(computed, id.Level, first, n)
		id = parent
	}
}

// TamperNode XORs mask into a stored node digest, modeling an adversary
// rewriting tree nodes in external memory.
func (t *Tree) TamperNode(id NodeID, mask []byte) {
	n := t.node(id.Level, id.Index)
	for i := range n {
		n[i] ^= mask[i%len(mask)]
	}
}

// Root returns a copy of the trusted root digest.
func (t *Tree) Root() []byte { return append([]byte(nil), t.root...) }

func equal(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	var d byte
	for i := range a {
		d |= a[i] ^ b[i]
	}
	return d == 0
}
