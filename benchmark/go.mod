module pasnet/benchmark

go 1.24

require pasnet v0.0.0

replace pasnet => ../
