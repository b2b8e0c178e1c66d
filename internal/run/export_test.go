package run

// The checkpoint keys, for the external key-soundness test.
var (
	ConvCheckpointKey = convCheckpointKey
	APCheckpointKey   = apCheckpointKey
)
