module libcrpm/bench

go 1.22

require libcrpm v0.0.0

replace libcrpm => ../
