// Corpus for the loader's file selection: lanes is declared once per
// build, by kern_amd64.go on amd64 and by kern_other.go elsewhere, and
// skip.go never builds. Type-checking more than one declaration fails.
package buildtags

// Width is the kernel's lane count on this build.
func Width() int { return lanes() }
