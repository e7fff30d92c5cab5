//go:build !amd64

package buildtags

func lanes() int { return 1 }
