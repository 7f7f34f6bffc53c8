package store

import (
	"os"
	"path/filepath"
)

// atomicWriteFile publishes a data file atomically and durably: write
// into a temp file in path's directory, fsync the temp file, rename it
// onto path, then fsync the directory so the rename itself survives a
// crash. Every file this package replaces wholesale — flat snapshots,
// manifests, cache sidecars — goes through here.
//
// This is the one audited copy of the sequence: the durably analyzer
// (internal/lint) verifies both fsyncs inside this function and flags
// any os.Rename anywhere else, so the idiom cannot be hand-rolled
// incompletely again. pattern names the temp file (os.CreateTemp
// syntax) so a crash leaves an identifiable .milret-* orphan.
//
// milret:atomic-rename
func atomicWriteFile(path, pattern string, write func(*os.File) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), pattern)
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	syncDir(path)
	return nil
}
