//go:build !amd64 || purego

package ec

// Without the amd64 vector kernel the word-wide Go loops in gf.go take
// every byte.

func initKernel() {}

func mulVec(c byte, in, out []byte) int { return 0 }

func mulAddVec(c byte, in, out []byte) int { return 0 }
