// Package markers exercises the hierflow marker contract: the serial marker
// is an exemption, so a reasonless one declares nothing and is reported as
// malformed (under the "lint" pseudo-analyzer, like a reasonless
// //lint:ignore), while a well-formed one passes silently.
package markers

func spawn(done chan struct{}) {
	//hierflow:serial
	go func() { close(done) }()
}

func spawnReasoned(done chan struct{}) {
	//hierflow:serial fixture goroutine, joined by the caller through done
	go func() { close(done) }()
}
