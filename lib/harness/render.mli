(** Plain-text rendering of experiment tables and figure series. *)

val header : string -> string -> unit
(** [header id title] prints a boxed experiment header. *)

val note : string -> unit
(** A wrapped commentary line (paper expectation, caveat, ...). *)

val table : columns:string list -> rows:string list list -> unit
(** Fixed-width table with a rule under the column names. *)

val downsample_linear : every:int -> (int * int) list -> (int * int) list
(** Keeps one point per [every] x-units (plus the last). *)

val downsample_log : (int * int) list -> (int * int) list
(** Keeps geometrically spaced points — for the paper's logarithmic
    x-axes (Figures 8-10). *)

val ascii_plot :
  ?width:int -> ?height:int -> ?log_x:bool -> (int * int) list -> unit
(** A small scatter rendering of a series, good enough to eyeball the
    shapes of Figures 1, 8, 9, 10 and 11 in a terminal. *)

val percent : float -> string
(** [percent 0.034] is ["+3.4%"]. *)

val factor : float -> string
(** [factor 21.3] is ["21.3X"]. *)
