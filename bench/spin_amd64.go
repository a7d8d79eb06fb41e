package main

// pauseLoop executes n PAUSE instructions: the spin-wait hint, which
// keeps the CPU awake while leaving the core's execution resources to a
// sibling hardware thread.
func pauseLoop(n int)
