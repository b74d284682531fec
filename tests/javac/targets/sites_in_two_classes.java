import android.app.Notification;
import android.net.Uri;

class Q {
    void ring(Notification.Builder b, Uri u) {
        b.setSound(u);
    }
}

class R {
    void ring(Notification.Builder b, Uri u) {
        b.setSound(u);
    }
}
