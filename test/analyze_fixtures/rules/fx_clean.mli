val sort : float list -> float list
val is_half : float -> bool
val head : int list -> int
