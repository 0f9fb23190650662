_start:
    ADR  X0, buf
    MOV  X1, #3
loop:
    LDR  X2, [X0]
    SUB  X1, X1, #1
    CBNZ X1, loop
    SVC  #0
    .org 0x40000
buf:
    .word 7
