package repl

import (
	"github.com/dcindex/dctree/internal/core"
	"github.com/dcindex/dctree/internal/storage"
)

// PromoteDir promotes a follower directory whose follower process is no
// longer running (dctool promote): it opens the replica store and reopens
// it read-write with the mirror as its write-ahead log. Recovery replays
// any mirrored records past the replica's last checkpoint, so nothing the
// follower shipped is lost even if it died before checkpointing.
//
// blockSize must match the store's (the primary's Config.BlockSize; the
// default for stores created with defaults). The returned tree writes new
// records continuing the old primary's LSN sequence — on a freshly bumped
// fencing epoch, so the old primary's timeline is dead the moment this
// returns; the caller owns both tree and store and must Close them (tree
// first).
func PromoteDir(dir string, blockSize int, wopts storage.WALOptions) (*core.Tree, *storage.PagedStore, error) {
	store, err := storage.OpenPagedStore(StorePath(dir), blockSize, 0)
	if err != nil {
		return nil, nil, err
	}
	tree, err := core.OpenDurableOpts(store, MirrorPrefix(dir), wopts)
	if err != nil {
		store.Close()
		return nil, nil, err
	}
	if _, err := tree.BumpEpoch(); err != nil {
		tree.Close()
		store.Close()
		return nil, nil, err
	}
	return tree, store, nil
}
