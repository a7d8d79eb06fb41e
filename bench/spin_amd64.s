#include "textflag.h"

// func pauseLoop(n int)
TEXT ·pauseLoop(SB), NOSPLIT, $0-8
	MOVQ n+0(FP), CX
loop:
	PAUSE
	DECQ CX
	JNZ  loop
	RET
