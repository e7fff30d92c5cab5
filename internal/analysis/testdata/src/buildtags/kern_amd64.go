package buildtags

func lanes() int { return 4 }
