package run

// The checkpoint key, for the external key-soundness test.
var CheckpointKey = checkpointKey
