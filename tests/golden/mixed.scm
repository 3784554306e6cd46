# Export coverage beyond binary domains: a three-valued agent (DOT prints
# Gear=value), singleton {1} domains (printed like booleans), and agents on
# two ranks. The golden DOT/JSON files next to this one were written from it.

exogenous U in {0, 1}
exogenous K in {1}
agent Gear in {lo, mid, hi}
endogenous Fast in {0, 1}
endogenous Lit in {1}
agent Brake in {0, 1}
eq Gear := if U then hi else mid
eq Fast := Gear == hi
eq Lit := K
eq Brake := Fast & U
context U = 1, K = 1
