//go:build linux

package experiments

import (
	"syscall"
	"unsafe"
)

// atFDCWD is Linux's AT_FDCWD (-100): openat resolves a relative path
// against the working directory, as open does.
const atFDCWD = ^uintptr(99)

// readEntry reads the entry file at path whole into *bp (see readAll)
// through raw system calls, from a path that may sit on the caller's stack.
// An entry is opened, read once and closed, so the os.File that os.Open
// would build around it (its poller registration and finalizer) and the
// copy syscall.Open makes of the path would cost more than the read. Open
// and read retry on EINTR, as the os package does.
func readEntry(path []byte, bp *[]byte) ([]byte, error) {
	path = append(path, 0)
	var fd int
	for {
		r, _, errno := syscall.Syscall6(syscall.SYS_OPENAT, atFDCWD, uintptr(unsafe.Pointer(&path[0])),
			syscall.O_RDONLY|syscall.O_CLOEXEC|syscall.O_LARGEFILE, 0, 0, 0)
		if errno == 0 {
			fd = int(r)
			break
		}
		if errno != syscall.EINTR {
			return nil, errno
		}
	}
	defer syscall.Close(fd)
	return readAll(func(b []byte) (int, error) {
		for {
			n, err := syscall.Read(fd, b)
			if err != syscall.EINTR {
				return n, err
			}
		}
	}, bp)
}
