val used : int
val hook : int
val dead : int
