// Package poolreturn is a hierlint golden fixture for the pool-return
// analyzer: free-list allocations that never reach a release, and
// references used after their record was recycled, alongside clean
// lifecycles that must not be flagged.
package poolreturn

type rec struct {
	id   int
	next *rec
}

type pool struct {
	free []*rec
	live *rec
}

// allocRec is the free-list allocation shape the analyzer tracks: an
// in-module alloc* function returning a pointer.
func (pl *pool) allocRec() *rec {
	if n := len(pl.free); n > 0 {
		r := pl.free[n-1]
		pl.free = pl.free[:n-1]
		return r
	}
	return &rec{}
}

func (pl *pool) release(r *rec) {
	pl.free = append(pl.free, r)
}

func (r *rec) release() {}

func recycleRec(pl *pool, r *rec) {
	pl.free = append(pl.free, r)
}

func discard(pl *pool) {
	pl.allocRec() // want `pooled allocRec result discarded`
}

func blank(pl *pool) {
	_ = pl.allocRec() // want `pooled allocRec result assigned to blank`
}

// neverReleased initializes the record but neither releases nor hands it
// off: field writes alone are not consumption.
func neverReleased(pl *pool) {
	r := pl.allocRec() // want `pooled record from allocRec bound to r but never released or handed off`
	r.id = 7
	r.next = nil
}

func useAfterRelease(pl *pool) int {
	r := pl.allocRec()
	r.id = 1
	pl.release(r)
	return r.id // want `use of r after release`
}

func writeAfterMethodRelease(pl *pool) {
	r := pl.allocRec()
	r.release()
	r.id = 2 // want `use of r after release`
}

// cleanRelease is the canonical lifecycle: allocate, initialize, release.
func cleanRelease(pl *pool) {
	r := pl.allocRec()
	r.id = 3
	pl.release(r)
}

// cleanRecycle hands the record to a recycle* helper.
func cleanRecycle(pl *pool) {
	r := pl.allocRec()
	recycleRec(pl, r)
}

// cleanHandoff transfers the release obligation by storing the record.
func cleanHandoff(pl *pool) {
	r := pl.allocRec()
	pl.live = r
}

// cleanReturn transfers it by returning.
func cleanReturn(pl *pool) *rec {
	r := pl.allocRec()
	r.id = 4
	return r
}

// cleanReassign: a reassignment after release starts a fresh lifecycle, so
// the later uses are not use-after-release.
func cleanReassign(pl *pool) {
	r := pl.allocRec()
	pl.release(r)
	r = pl.allocRec()
	r.id = 5
	pl.release(r)
}

// Sharded free list: per-shard heads with cache-line padding. The analyzer
// must see through the shard selector:
// allocation and release both go via a *shard lvalue, not the pool itself.
type shard struct {
	free []*rec
	_    [64 - 24]byte
}

type shardedPool struct {
	shards [8]shard
	cur    int
}

func (pl *shardedPool) shard() *shard { return &pl.shards[pl.cur&7] }

// allocShardRec is the sharded allocation shape: pop from the selected
// shard's head, fall back to the heap.
func (pl *shardedPool) allocShardRec() *rec {
	sh := pl.shard()
	if n := len(sh.free); n > 0 {
		r := sh.free[n-1]
		sh.free = sh.free[:n-1]
		return r
	}
	return &rec{}
}

func (pl *shardedPool) release(r *rec) {
	sh := pl.shard()
	sh.free = append(sh.free, r)
}

func shardDiscard(pl *shardedPool) {
	pl.allocShardRec() // want `pooled allocShardRec result discarded`
}

func shardBlank(pl *shardedPool) {
	_ = pl.allocShardRec() // want `pooled allocShardRec result assigned to blank`
}

func shardNeverReleased(pl *shardedPool) {
	r := pl.allocShardRec() // want `pooled record from allocShardRec bound to r but never released or handed off`
	r.id = 8
}

func shardUseAfterRelease(pl *shardedPool) int {
	r := pl.allocShardRec()
	r.id = 9
	pl.release(r)
	return r.id // want `use of r after release`
}

// shardClean is the canonical sharded lifecycle: allocate from the shard,
// initialize, release back through the shard head.
func shardClean(pl *shardedPool) {
	r := pl.allocShardRec()
	r.id = 10
	pl.release(r)
}
