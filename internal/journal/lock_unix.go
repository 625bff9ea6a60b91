//go:build unix

package journal

import (
	"os"
	"syscall"
)

// Lock takes an advisory flock(2) on f, exclusive for writers and shared
// for readers. With wait it blocks until granted, retrying EINTR; without
// it, it fails with errLocked while another open file holds a conflicting
// lock.
func Lock(f *os.File, exclusive, wait bool) error {
	how := syscall.LOCK_SH
	if exclusive {
		how = syscall.LOCK_EX
	}
	if !wait {
		how |= syscall.LOCK_NB
	}
	for {
		err := syscall.Flock(int(f.Fd()), how)
		if err == syscall.EWOULDBLOCK {
			return errLocked
		}
		if err != syscall.EINTR {
			return err
		}
	}
}

// Unlock releases f's flock.
func Unlock(f *os.File) error {
	return syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
}

// syncDir makes a rename in dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
