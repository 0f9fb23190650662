_start:
    ADR X0, buf
    MOV X1, #0
    MOV X2, #0
fill:
    STR X1, [X0, X3]
    ADD X1, X1, #1
    ADD X3, X3, #8
    CMP X1, #50
    B.LT fill
    MOV X3, #0
    MOV X1, #0
sum:
    LDR X4, [X0, X3]
    ADD X2, X2, X4
    ADD X3, X3, #8
    ADD X1, X1, #1
    CMP X1, #50
    B.LT sum
    SVC #0
    .org 0x40000
buf:
    .space 512
