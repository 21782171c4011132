// Package fsx holds the small filesystem and integrity primitives
// shared by every persistence path in the repository: atomic file
// replacement (so a crash mid-save can never leave a truncated artifact
// at the target path), and the one CRC-framed section codec every
// artifact format is written and read through: the model, the build
// checkpoint, the ALT guard, the spatial index, the shard model and
// the shard routing map. ReadSection and ReadSlice size nothing from a
// header: storage grows only as payload bytes arrive, so a corrupt or
// hostile header is an error, never an out-of-memory crash.
package fsx

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/faultinject"
)

// FailpointWriteAtomic is the chaos-test hook armed to make WriteAtomic
// calls fail (simulating a full disk or lost mount) without touching
// the filesystem.
const FailpointWriteAtomic = "fsx/write-atomic"

// WriteAtomic writes a file by streaming through write into a
// temporary file in the destination directory, fsyncing it, and
// renaming it over path. Either the old content or the complete new
// content is visible at path; a crash mid-save leaves at most a stray
// *.tmp-* file, never a truncated target.
func WriteAtomic(path string, write func(w io.Writer) error) (err error) {
	if err := faultinject.Check(FailpointWriteAtomic); err != nil {
		return fmt.Errorf("fsx: writing %s: %w", path, err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	// CreateTemp opens 0600; restore the 0644 a plain os.Create would
	// have given (umask still applies to fresh files via Rename target).
	if err = tmp.Chmod(0o644); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Persist the rename itself; best-effort (some filesystems reject
	// directory fsync).
	if d, derr := os.Open(dir); derr == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// Rotate atomically moves path aside to path+".1", replacing any
// previous rotation, so an appender (e.g. the query log) can reopen a
// fresh file at path without ever presenting a truncated or
// half-renamed log to readers. A missing source file is not an error:
// rotating an empty log is a no-op.
func Rotate(path string) error {
	if err := os.Rename(path, path+".1"); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}
