//go:build !unix

package journal

import "os"

// Non-unix platforms get no advisory file locking: the embedded store is
// still safe within one process (its mutex serializes operations), but two
// daemons must not share one store file or one WAL there. Nor can they
// sync a directory, so a rename made just before a crash may be lost.
func Lock(*os.File, bool, bool) error { return nil }

func Unlock(*os.File) error { return nil }

func syncDir(string) error { return nil }
