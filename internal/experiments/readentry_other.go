//go:build !linux

package experiments

import "os"

// readEntry reads the entry file at path whole into *bp (see readAll).
func readEntry(path []byte, bp *[]byte) ([]byte, error) {
	f, err := os.Open(string(path))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readAll(f.Read, bp)
}
