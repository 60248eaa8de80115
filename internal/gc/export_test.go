package gc

// Thresholds exposed to the external tests that size heap shapes
// around them.
const (
	ForkGray        = forkGray
	InlineCopyWords = inlineCopyWords
)
