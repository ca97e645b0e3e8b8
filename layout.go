package staircase

// layoutPad does nothing but occupy one 32-byte slot of the text
// segment. The repository's benchmark decides which operations were
// timed on an undisturbed core by a calibration loop of its own
// (benchmark/pass.go, calibrate), and that loop is five instructions
// whose speed depends on where the linker puts them: inside one 64-byte
// line it runs at one cycle an element, across two lines at about two,
// and then the filter pools quiet and disturbed windows and the timing
// metrics of equal runs drift apart. Functions are laid out in 32-byte
// slots, so every change to the library moves the loop by a multiple of
// 32 bytes; with this slot present it starts on a 64-byte boundary.
//
// Check: go tool nm -n .bench_build/benchmark | grep 'caller).calibrate'
// — the address must end in 00, 40, 80 or c0. When it no longer does,
// remove this function and its call (or put them back); once
// benchmark/pass.go aligns its own loop, remove them for good.
//
//go:noinline
func layoutPad() {}
