package pi

// TraceTapeMode forwards to TraceTape; its declaration is allowed.
func TraceTapeMode(fixed bool) {}

func trace() { TraceTapeMode(true) } // want
