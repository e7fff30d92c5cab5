//go:build ignore

package buildtags

func lanes() int { return 0 }
