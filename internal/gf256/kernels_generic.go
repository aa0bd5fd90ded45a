//go:build !amd64 || purego

package gf256

// No assembly kernels in this build: the pure-Go kernels take every byte.

func mulVector(c byte, src, dst []byte) int { return 0 }

func mulAddVector(c byte, src, dst []byte) int { return 0 }
